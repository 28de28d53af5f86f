"""Independent quadrature reference for w(z).

Everything else in this package evaluates closed forms; this module goes
back to the defining integral

    w(z) = (1/sqrt(pi)) * integral_0^inf exp(-tau^2/4 - y tau + i x tau) dtau

and to its finite-interval intermediate, where the Gaussian kernel is
replaced by its cosine expansion and integrated over [0, tau_m]. Both are
computed by composite Gauss-Legendre panels, halving the panel width until
two successive levels agree within the requested absolute tolerance. The
initial panel width shrinks like pi/(4 x) so the oscillatory factor
e^{i x tau} never outruns the rule, and for ``w_quadrature`` like 4 pi / y
above y = 16, so that the first panel's nodes see the decay e^{-y tau}:
two levels that both miss that peak agree on a wrong value. Every width is
then rounded up to a power of two. Panels are anchored at tau = 0, so
results do not depend on the exact truncation point once the integrand has
decayed below double precision. ``w_quadrature`` stops at the point T past
which the omitted tail of w is provably below abs_tol * 2^-52 (T ~ 16.4
for y -> 0 at the default abs_tol, and smaller for larger y), never past
tau ~ 53, where exp(-tau^2/4) < 1e-304.

Both integrands are a real envelope times e^{i x tau} (e^{-tau^2/4 - y tau}
here, the cosine kernel times e^{-y tau} for the finite form), and the
phase of a node is a per-panel factor times a per-node one, so a level
takes one real exponential per node instead of a complex one. A power-of-two
width w makes x w exact, a shift of x's exponent, so the per-panel angle
x (k + 1/2) w is split into an exact leading part and a small rest, and no
rounding of it is shared by the 20 nodes of a panel: rounded as one
product, that angle cost up to 8.9e-14 relative at x = 1000 against
30-digit mpmath, where the split form stays within 3e-15.

This is a correctness instrument, not a production path: clarity and a
trustworthy error estimate over speed. numpy is imported, and the 20-point
rule built, on the first call, so ``import cef`` alone never loads numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .coefficients import CoefficientTable, _is_int, _is_real
from .errors import ConvergenceError, _require_upper_half_plane

__all__ = ["QuadratureSpec", "w_quadrature", "w_finite_quadrature"]

_SQRT_PI = math.sqrt(math.pi)

# exp(-tau^2/4) < 1e-304 beyond this point; extending tau_max further
# cannot change the double-precision result.
_DECAY_CUTOFF = 52.9


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation point, target absolute tolerance, and panel budget.

    ``max_subdivisions`` bounds the panels of one refinement level, and
    ``w_quadrature`` lays panels only up to its tail cutoff T (see
    ``_tail_cutoff``), so the budget counts the panels up to T, not up to
    tau_max. ``tau_max`` changes a ``w_quadrature`` result only below T.
    """

    tau_max: float = 50.0
    abs_tol: float = 1e-14
    max_subdivisions: int = 2 ** 16

    def __post_init__(self) -> None:
        if not (_is_real(self.tau_max) and _is_real(self.abs_tol)):
            raise ValueError(f"tau_max and abs_tol must be reals, got {self!r}")
        if not (math.isfinite(self.tau_max) and self.tau_max > 0):
            raise ValueError(f"tau_max must be positive, got {self.tau_max!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol!r}")
        if not (_is_int(self.max_subdivisions) and self.max_subdivisions >= 1):
            raise ValueError(
                f"max_subdivisions must be a positive integer, got {self.max_subdivisions!r}")


@functools.cache
def _gauss_legendre():
    """The 20-point Gauss-Legendre rule, built once: a build (~0.4 ms on a
    2-vCPU Xeon VM) costs four to six mean w_quadrature calls over x in
    [0.01, 15], y in [1e-4, 15] (~0.06-0.1 ms each on the same VM)."""
    import numpy as np
    return np.polynomial.legendre.leggauss(20)


def _tail_cutoff(y: float, abs_tol: float) -> float:
    """The T past which (1/sqrt(pi)) * integral_T^inf e^{-tau^2/4 - y tau}
    dtau, which bounds the omitted tail of w, is at most abs_tol * 2^-52.

    g(tau) = tau^2/4 + y tau is convex with g'(tau) = tau/2 + y, so the tail
    is at most e^{-g(T)} / (sqrt(pi) g'(T)). T solves g(T) = L, so the
    bound is e^{-L} / (sqrt(pi) sqrt(y^2 + L)) <= e^{-L} / sqrt(pi) <=
    abs_tol * 2^-52 with L = max(1, ln(2^52 / (sqrt(pi) abs_tol))), taken
    from logarithms so that no factor underflows. L / ((hypot(y, sqrt(L)) + y) / 2)
    is 2 (sqrt(y^2 + L) - y) without the cancellation at large y, the
    overflow of y^2, or that of the sum past y ~ 9e307.
    """
    big_l = max(1.0, 52.0 * math.log(2.0) - math.log(_SQRT_PI) - math.log(abs_tol))
    return big_l / (0.5 * math.hypot(y, math.sqrt(big_l)) + 0.5 * y)


def _phase_split(c: float, n_panels: int) -> tuple[float, float]:
    """(c_hi, c_lo) with c_hi + c_lo = c exactly, where c_hi is c cut
    toward zero to 26 bits (fewer past 2^26 panels), so that
    c_hi * (k + 1/2) is exact for every k < n_panels unless c is subnormal.
    c = x * w is exact for a power-of-two panel width w. Below 2^26 panels
    the split does not depend on n_panels, so a panel's phase does not
    depend on how far its level is laid out. The cut is toward zero, not a
    floor, so -c gives exactly (-c_hi, -c_lo).
    """
    bits = 53 - max(27, (2 * n_panels - 1).bit_length())
    mantissa, exponent = math.frexp(c)
    c_hi = math.ldexp(math.trunc(math.ldexp(mantissa, bits)), exponent - bits)
    return c_hi, c - c_hi


def _refine_panels(envelope, x: float, upper: float, width: float,
                   spec: QuadratureSpec) -> complex:
    """Integrate envelope(tau) * e^{i x tau} over [0, upper], halving the
    panel width until two successive composite Gauss-Legendre estimates
    agree within spec.abs_tol.

    ``envelope`` maps an array of tau to real values of the same shape. On
    a level of width w the node tau_kj = (k + 1/2) w + (w/2) xi_j has the
    phase e^{i x tau_kj} = E_k F_j, so panel k is
    (w/2) E_k sum_j envelope(tau_kj) omega_j F_j: one real matrix product
    over the level and 2 n_panels + 20 complex exponentials, not 20 n_panels.
    E_k = e^{i c_hi (k + 1/2)} e^{i c_lo (k + 1/2)} from ``_phase_split``,
    whose first angle is exact, so no rounding of x (k + 1/2) w is shared
    by the 20 nodes of a panel.

    ``width`` is first rounded up to a power of two, which makes x w and its
    halvings exact products for the split: any width in the octave below a
    power of two gives that power's panels and bits.
    """
    import numpy as np
    nodes, weights = _gauss_legendre()
    mantissa, exponent = math.frexp(width)
    width = width if mantissa == 0.5 else math.ldexp(1.0, exponent)
    previous = None
    while True:
        # tested before math.ceil, which cannot take the inf of a tiny width
        if upper / width > spec.max_subdivisions:
            raise ConvergenceError(
                f"needed more than {spec.max_subdivisions} panels to reach "
                f"abs_tol={spec.abs_tol:g}")
        n_panels = math.ceil(upper / width)
        half = 0.5 * width
        k = np.arange(n_panels) + 0.5
        t = (width * k)[:, None] + half * nodes
        # omega_j F_j as a (20, 2) real matrix: columns real, imaginary
        node_phases = np.exp(1j * (x * half * nodes)) * weights
        sums = (envelope(t) @ node_phases.view(float).reshape(-1, 2)).view(complex)[:, 0]
        c_hi, c_lo = _phase_split(x * width, n_panels)
        panels = np.exp(1j * (c_hi * k)) * np.exp(1j * (c_lo * k)) * sums
        # exactly rounded, so the result cannot depend on how many
        # negligible panels past the decay point join the sum
        current = half * complex(math.fsum(panels.real.tolist()),
                                 math.fsum(panels.imag.tolist()))
        if previous is not None and abs(current - previous) <= spec.abs_tol:
            return current
        previous = current
        width = half


def w_quadrature(z: complex, spec: QuadratureSpec) -> complex:
    """w(z) for Im z > 0 by direct numerical integration of the defining
    integral, truncated at spec.tau_max or where the tail drops below
    abs_tol * 2^-52, whichever comes first.

    Raises DomainError for Im z <= 0 or non-finite z (the series kernels'
    rule, ``errors._require_upper_half_plane``) and ConvergenceError when
    the panel budget runs out before the tolerance is met.
    """
    _require_upper_half_plane(z, "w_quadrature")
    x = z.real
    y = z.imag
    import numpy as np

    def envelope(t: np.ndarray) -> np.ndarray:
        return np.exp(t * (-0.25 * t - y))

    upper = min(spec.tau_max, _DECAY_CUTOFF, _tail_cutoff(y, spec.abs_tol))
    width = 0.25 * math.pi / max(1.0, abs(x), y / 16.0)
    return _refine_panels(envelope, x, upper, width, spec) / _SQRT_PI


def w_finite_quadrature(z: complex, coeffs: CoefficientTable,
                        spec: QuadratureSpec) -> complex:
    """w(z) by integrating the cosine-expanded kernel over [0, tau_m].

    The refined series is the exact antiderivative evaluation of this
    integral, so the two must agree; this cross-check validates the
    analytic integration step independently of the closed form.
    """
    _require_upper_half_plane(z, "w_finite_quadrature")
    x = z.real
    y = z.imag
    tau = coeffs.params.tau_m
    import numpy as np
    # a_n is 0.0 from n = 105 at tau_m = 12: only the live terms count
    a = np.trim_zeros(np.asarray(coeffs.a), "b")
    freqs = np.arange(a.size) * (math.pi / tau)

    def envelope(t: np.ndarray) -> np.ndarray:
        kernel = np.cos(t[..., None] * freqs) @ a - 0.5 * a[0]
        return kernel * np.exp(-y * t)

    # the kernel itself carries frequencies up to n pi / tau_m, n its last live term
    bandwidth = max(1.0, abs(x)) + freqs[-1]
    width = min(0.5, 0.25 * math.pi / bandwidth)
    return _refine_panels(envelope, x, tau, width, spec) / _SQRT_PI
