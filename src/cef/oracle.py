"""Independent quadrature reference for w(z).

Everything else in this package evaluates closed forms; this module goes
back to the defining integral

    w(z) = (1/sqrt(pi)) * integral_0^inf exp(-tau^2/4 - y tau + i x tau) dtau

and to its finite-interval intermediate, where the Gaussian kernel is
replaced by its cosine expansion and integrated over [0, tau_m]. Both are
computed by composite Gauss-Legendre panels. The widest panel width that
may be accepted, r, is the power of two at or above min(1/2, pi/(4B),
2 pi/y), B the bandwidth of the integrand (|x| for ``w_quadrature``,
max(1, |x|) plus the kernel's top frequency for the finite form), so an
accepted panel holds less than pi/2 radians of its top frequency, and at
large y the first panel's nodes see the decay e^{-y tau}: two levels that
both miss that peak agree on a wrong value. The levels run 4r, r, r/2,
r/4, ..., and a value is accepted at the first level that agrees with the
one before it within the requested absolute tolerance. The 4r level costs a
quarter of level r, and its own error is the larger, so the first test
asks more than one against a 2r level would. Panels are anchored at
tau = 0, so results do not depend on the exact truncation point once the
integrand has decayed below double precision. ``w_quadrature`` stops at
the point T past which the omitted tail of w is provably below
abs_tol * 2^-52 (T ~ 16.4 for y -> 0 at the default abs_tol, and smaller
for larger y, and at most 55.85 for any abs_tol), or at tau_max if that
comes first.

Both integrands are a real envelope times e^{i x tau} (e^{-tau^2/4 - y tau}
here, the cosine kernel times e^{-y tau} for the finite form), and the
phase of a node is a per-panel factor times a per-node one, so a level
takes one real exponential per node instead of a complex one. A power-of-two
width w makes x w exact, a shift of x's exponent, so the per-panel angle
x (k + 1/2) w is split into an exact leading part and a small rest, and no
rounding of it is shared by the 20 nodes of a panel: rounded as one
product, that angle cost up to 8.9e-14 relative at x = 1000 against
30-digit mpmath, where the split form stays within 4.7e-15 up to x = 1500.

The nodes of a scan row share y, and so the envelope and the tail cutoff
T. ``_quadrature_row`` integrates a row in one ``_refine_panels`` schedule,
which walks the union of its x's levels in descending order and evaluates
the envelope once a width while each x keeps its own sums and stopping
test: an ``oracle_scan`` row's x accept four widths r, whose levels 4r, r
share two widths, so the row lays six, not eight. ``w_quadrature`` is the
one-node row, so every value of a row has the bits of a single-node call.
``analysis.error_scan`` takes its oracle reference a row at a time.

This is a correctness instrument, not a production path: clarity and a
trustworthy error estimate over speed. numpy is imported, and the 20-point
rule built, on the first call, so ``import cef`` alone never loads numpy.
"""

from __future__ import annotations

import functools
import math

from .coefficients import _SQRT_PI, CoefficientTable, _is_int, _is_real, _Record
from .errors import ConvergenceError, _require_upper_half_plane

__all__ = ["QuadratureSpec", "w_quadrature", "w_finite_quadrature"]

# (x, panel) entries per block of a level in ``_refine_panels``: 1 MiB per
# complex array however many x share a panel width
_BLOCK = 2 ** 16


class QuadratureSpec(_Record):
    """Truncation point, target absolute tolerance, and panel budget.

    ``max_subdivisions`` bounds the panels of one refinement level, and
    ``w_quadrature`` lays panels only up to its tail cutoff T (see
    ``_tail_cutoff``), so the budget counts the panels up to T, not up to
    tau_max. ``tau_max`` changes a ``w_quadrature`` result only below T.
    """

    _fields = __match_args__ = ("tau_max", "abs_tol", "max_subdivisions")
    tau_max: float = 50.0
    abs_tol: float = 1e-14
    max_subdivisions: int = 2 ** 16

    def __init__(self, tau_max: float = tau_max, abs_tol: float = abs_tol,
                 max_subdivisions: int = max_subdivisions) -> None:
        vars(self).update(tau_max=tau_max, abs_tol=abs_tol, max_subdivisions=max_subdivisions)
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
    """The 20-point Gauss-Legendre rule, built once. The first call also
    imports ``numpy.polynomial``, which ``import numpy`` does not load:
    2.9-4.8 ms, and 0.6-1.0 ms for ``leggauss(20)`` itself (cold
    processes, 2-vCPU Xeon VM). A first ``w_quadrature`` call, at 5.4-5.6 ms
    after ``import numpy``, costs some 40-50 mean calls over x in
    [0.01, 15], y in [1e-4, 15], or about 140 nodes of a scan row (4 cold
    processes, same VM)."""
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


def _phase_split(c, n_panels: int):
    """(c_hi, c_lo) with c_hi + c_lo = c exactly, elementwise over an array
    c, where c_hi is c cut toward zero to 26 bits (fewer past 2^26 panels),
    so that c_hi * (k + 1/2) is exact for every k < n_panels unless c is
    subnormal. c = x * w is exact for a power-of-two panel width w. Below
    2^26 panels the split does not depend on n_panels, so a panel's phase
    does not depend on how far its level is laid out. The cut is toward
    zero, so -c gives exactly (-c_hi, -c_lo); c = -0.0 gives (0.0, -0.0).
    """
    import numpy as np
    bits = 53 - max(27, (2 * n_panels - 1).bit_length())
    mantissa, exponent = np.frexp(c)
    # np.trunc keeps the sign of -0.0, and + 0.0 drops it, as math.trunc does
    c_hi = np.ldexp(np.trunc(np.ldexp(mantissa, bits)) + 0.0, exponent - bits)
    return c_hi, c - c_hi


def _widest_panel(bandwidth: float, y: float) -> float:
    """min(1/2, pi/(4 bandwidth), 2 pi/y): under pi/2 radians of the
    integrand's top frequency a panel, and at large y the first panel's
    nodes see the decay e^{-y tau}."""
    return 0.25 * math.pi / max(0.5 * math.pi, bandwidth, y / 8.0)


def _power_of_two_at_or_above(width: float) -> float:
    """The least power of two >= width, from ``math.frexp``, which is exact
    (``2.0 ** math.ceil(math.log2(width))`` can land one power low)."""
    mantissa, exponent = math.frexp(width)
    return width if mantissa == 0.5 else math.ldexp(1.0, exponent)


def _refine_panels(envelope, xs, upper: float, widths,
                   spec: QuadratureSpec) -> list[complex]:
    """Integrate envelope(tau) * e^{i x tau} over [0, upper] for every x in
    ``xs`` by composite Gauss-Legendre panels, accepting an x's estimate
    once it agrees with the level before within spec.abs_tol.

    ``widths`` holds, for each x, the first width r that may be accepted.
    An x's levels run 4r, r, r/2, r/4, ...: the first test compares r with
    the 4r level, which costs a quarter of level r and whose own error is
    larger, so it asks more than a test against 2r would; every later test
    compares a level with the one before it.

    ``envelope`` maps an array of tau to real values of the same shape. On
    a level of width w the node tau_kj = (k + 1/2) w + (w/2) xi_j has the
    phase e^{i x tau_kj} = E_k F_j, so panel k is
    (w/2) E_k sum_j envelope(tau_kj) omega_j F_j: one real matrix product
    per x and 2 n_panels + 20 complex exponentials, not 20 n_panels.
    E_k = e^{i c_hi (k + 1/2)} e^{i c_lo (k + 1/2)} from ``_phase_split``,
    whose first angle is exact, so no rounding of x (k + 1/2) w is shared
    by the 20 nodes of a panel.

    The x share the envelope: one schedule walks the union of their levels
    in descending order and evaluates the envelope once a width, for the x
    whose level it is. Each of those forms its own E_k, F_j and
    (n_panels x 20) @ (20 x 2) product, stacked into one matmul, and keeps
    its own exactly rounded sum and stopping test, so its value has the
    bits it has when integrated alone.

    Each width is first rounded up to a power of two, which makes x w and
    the other levels' widths exact products for the split: any width in
    the octave below a power of two gives that power's panels and bits.

    Raises ConvergenceError when a level would pass spec.max_subdivisions
    panels with some x still pending (every pending x would come to that
    level or a finer one); its ``unconverged`` attribute lists the indices
    into ``xs`` of those x, ascending.
    """
    import numpy as np
    nodes, weights = _gauss_legendre()
    i_nodes = 1j * nodes
    abs_tol = spec.abs_tol
    xs = np.asarray(xs, dtype=float)
    accepted = [_power_of_two_at_or_above(width) for width in widths]
    # the x waiting at each level width: an x's levels run 4r, then r, r/2, ...
    queue: dict[float, list[int]] = {}
    for i, r in enumerate(accepted):
        queue.setdefault(4.0 * r, []).append(i)
    values = [None] * len(accepted)
    previous = [None] * len(accepted)
    while queue:
        width = max(queue)
        # tested before math.ceil, which cannot take the inf of a tiny width
        if upper / width > spec.max_subdivisions:
            error = ConvergenceError(
                f"needed more than {spec.max_subdivisions} panels to reach "
                f"abs_tol={spec.abs_tol:g}")
            error.unconverged = sorted(i for waiting in queue.values() for i in waiting)
            raise error
        n_panels = math.ceil(upper / width)
        half = 0.5 * width
        k = np.arange(0.5, n_panels)
        i_k = 1j * k
        env = envelope((width * k)[:, None] + half * nodes)
        here = queue.pop(width)
        # blocks of x keep each (x, panel) array below _BLOCK entries
        step = max(1, _BLOCK // n_panels)
        for first in range(0, len(here), step):
            block = here[first:first + step]
            x = xs[block]
            # omega_j F_j of each x, F_j at angle x w/2 over xi_j, as a (20, 2)
            # real matrix: columns real, imaginary
            node_phases = np.exp((x * half)[:, None] * i_nodes) * weights
            sums = (env @ node_phases.view(float).reshape(-1, 20, 2)).view(complex)[..., 0]
            # E_k at angles c_hi and c_lo over k + 1/2
            c_hi, c_lo = _phase_split(x * width, n_panels)
            panels = np.exp(c_hi[:, None] * i_k) * np.exp(c_lo[:, None] * i_k) * sums
            for i, real, imag in zip(block, panels.real.tolist(), panels.imag.tolist()):
                # exactly rounded, so the result cannot depend on how many
                # negligible panels past the decay point join the sum
                current = half * complex(math.fsum(real), math.fsum(imag))
                if previous[i] is not None and abs(current - previous[i]) <= abs_tol:
                    values[i] = current
                else:
                    previous[i] = current
                    following = accepted[i] if width > accepted[i] else half
                    queue.setdefault(following, []).append(i)
    return values


def _quadrature_row(xs, y: float, spec: QuadratureSpec) -> list[complex]:
    """``w_quadrature`` at x + iy for every x in ``xs``, in one
    ``_refine_panels`` schedule over the x's accepted panel widths.

    Raises DomainError for the first x a per-node check would reject, and
    ConvergenceError when the panel budget runs out with nodes pending; its
    ``unconverged`` attribute then lists their indices into ``xs``,
    ascending, so that a scan names the node a per-node loop would.
    """
    import numpy as np

    def envelope(t: np.ndarray) -> np.ndarray:
        # exp(t (-t/4 - y)), formed in place
        exponent = -0.25 * t
        exponent -= y
        exponent *= t
        return np.exp(exponent, out=exponent)

    if not (y > 0.0 and math.isfinite(y) and all(map(math.isfinite, xs))):
        for x in xs:
            _require_upper_half_plane(complex(x, y), "w_quadrature")
    upper = min(spec.tau_max, _tail_cutoff(y, spec.abs_tol))
    row = _refine_panels(envelope, xs, upper, [_widest_panel(abs(x), y) for x in xs], spec)
    return [value / _SQRT_PI for value in row]


def w_quadrature(z: complex, spec: QuadratureSpec) -> complex:
    """w(z) for Im z > 0 by direct numerical integration of the defining
    integral, truncated at spec.tau_max or where the tail drops below
    abs_tol * 2^-52, whichever comes first.

    Raises DomainError for Im z <= 0 or non-finite z (the series kernels'
    rule, ``errors._require_upper_half_plane``) and ConvergenceError when
    the panel budget runs out before the tolerance is met.
    """
    return _quadrature_row([z.real], z.imag, spec)[0]


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
    return _refine_panels(envelope, [x], tau, [_widest_panel(bandwidth, y)], spec)[0] / _SQRT_PI
