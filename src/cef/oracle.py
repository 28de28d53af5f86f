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
two levels that both miss that peak agree on a wrong value. Panels are anchored at tau = 0, so
results do not depend on the exact truncation point once the integrand has
decayed below double precision. ``w_quadrature`` stops at the point T past
which the omitted tail of w is provably below abs_tol * 2^-52 (T ~ 16.4
for y -> 0 at the default abs_tol, and smaller for larger y), never past
tau ~ 53, where exp(-tau^2/4) < 1e-304.

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
    2-vCPU Xeon VM) costs about twice a mean w_quadrature over x in
    [0.01, 15], y in [1e-4, 15]."""
    import numpy as np
    return np.polynomial.legendre.leggauss(20)


def _tail_cutoff(y: float, abs_tol: float) -> float:
    """The T past which (1/sqrt(pi)) * integral_T^inf e^{-tau^2/4 - y tau}
    dtau, which bounds the omitted tail of w, is at most abs_tol * 2^-52.

    g(tau) = tau^2/4 + y tau is convex with g'(tau) = tau/2 + y, so the tail
    is at most e^{-g(T)} / (sqrt(pi) g'(T)). T solves g(T) = L, so the
    bound is e^{-L} / (sqrt(pi) sqrt(y^2 + L)) <= e^{-L} / sqrt(pi) <=
    abs_tol * 2^-52 with L = max(1, ln(2^52 / (sqrt(pi) abs_tol))), taken
    from logarithms so that no factor underflows. 2L / (hypot(y, sqrt(L)) + y)
    is 2 (sqrt(y^2 + L) - y) without the cancellation at large y or the
    overflow of y^2.
    """
    big_l = max(1.0, 52.0 * math.log(2.0) - math.log(_SQRT_PI) - math.log(abs_tol))
    return 2.0 * big_l / (math.hypot(y, math.sqrt(big_l)) + y)


def _refine_panels(f, upper: float, width: float, spec: QuadratureSpec) -> complex:
    """Halve the panel width until two successive composite Gauss-Legendre
    estimates agree within spec.abs_tol."""
    import numpy as np
    nodes, weights = _gauss_legendre()
    previous = None
    while True:
        n_panels = math.ceil(upper / width)
        if n_panels > spec.max_subdivisions:
            raise ConvergenceError(
                f"needed more than {spec.max_subdivisions} panels to reach "
                f"abs_tol={spec.abs_tol:g}")
        half = 0.5 * width
        mids = width * np.arange(n_panels) + half
        t = (mids[:, None] + half * nodes[None, :]).ravel()
        panels = f(t).reshape(n_panels, nodes.size) @ weights
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

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(t * complex(-y, x) - 0.25 * t * t)

    upper = min(spec.tau_max, _DECAY_CUTOFF, _tail_cutoff(y, spec.abs_tol))
    width = math.pi / (4.0 * max(1.0, abs(x), y / 16.0))
    return _refine_panels(integrand, upper, width, spec) / _SQRT_PI


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
    a = np.asarray(coeffs.a)
    freqs = np.arange(a.size) * (math.pi / tau)

    def integrand(t: np.ndarray) -> np.ndarray:
        kernel = np.cos(t[:, None] * freqs[None, :]) @ a - 0.5 * a[0]
        return kernel * np.exp(-y * t) * (np.cos(x * t) + 1j * np.sin(x * t))

    # the kernel itself carries frequencies up to N pi / tau_m
    bandwidth = max(1.0, abs(x)) + freqs[-1]
    width = min(0.5, math.pi / (4.0 * bandwidth))
    return _refine_panels(integrand, tau, width, spec) / _SQRT_PI
