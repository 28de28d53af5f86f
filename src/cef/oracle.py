"""Independent quadrature reference for w(z).

Everything else in this package evaluates closed forms; this module goes
back to the defining integral

    w(z) = (1/sqrt(pi)) * integral_0^inf exp(-tau^2/4 - y tau + i x tau) dtau

and to its finite-interval intermediate, where the Gaussian kernel is
replaced by its cosine expansion and integrated over [0, tau_m]. Both are
computed by composite Gauss-Legendre panels, halving the panel width until
two successive levels agree within the requested absolute tolerance. The
initial panel width shrinks like pi/(4 x) so the oscillatory factor
e^{i x tau} never outruns the rule. Panels are anchored at tau = 0, so
results do not depend on the exact truncation point once the integrand has
decayed below double precision (beyond tau ~ 53 it is < 1e-304).

This is a correctness instrument, not a production path: clarity and a
trustworthy error estimate over speed. numpy is imported, and the 20-point
rule built, on the first call, so ``import cef`` alone never loads numpy.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .coefficients import CoefficientTable, _is_int, _is_real
from .errors import ConvergenceError, DomainError

__all__ = ["QuadratureSpec", "w_quadrature", "w_finite_quadrature"]

_SQRT_PI = math.sqrt(math.pi)

# exp(-tau^2/4) < 1e-304 beyond this point; extending tau_max further
# cannot change the double-precision result.
_DECAY_CUTOFF = 52.9


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation point, target absolute tolerance, and panel budget."""

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
    """The 20-point Gauss-Legendre rule, built once: a build costs ~1/4 of a w_quadrature."""
    import numpy as np
    return np.polynomial.legendre.leggauss(20)


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
    integral, truncated at spec.tau_max.

    Raises DomainError for Im z <= 0 or non-finite z and ConvergenceError
    when the panel budget runs out before the tolerance is met.
    """
    if not (z.imag > 0.0 and cmath.isfinite(z)):
        raise DomainError(f"w_quadrature requires a finite z with Im z > 0, got z = {z!r}")
    x = z.real
    y = z.imag
    import numpy as np

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(t * complex(-y, x) - 0.25 * t * t)

    upper = min(spec.tau_max, _DECAY_CUTOFF)
    width = min(1.0, math.pi / (4.0 * max(1.0, abs(x))))
    return _refine_panels(integrand, upper, width, spec) / _SQRT_PI


def w_finite_quadrature(z: complex, coeffs: CoefficientTable,
                        spec: QuadratureSpec) -> complex:
    """w(z) by integrating the cosine-expanded kernel over [0, tau_m].

    The refined series is the exact antiderivative evaluation of this
    integral, so the two must agree; this cross-check validates the
    analytic integration step independently of the closed form.
    """
    if not (z.imag > 0.0 and cmath.isfinite(z)):
        raise DomainError(
            f"w_finite_quadrature requires a finite z with Im z > 0, got z = {z!r}")
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
