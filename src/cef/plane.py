"""Extension of w(z) from the upper half-plane to all finite arguments.

The series kernels require Im z > 0. Everywhere else the standard
Faddeeva symmetries apply:

    w(-conj(z)) = conj(w(z))          (real part even in x, imaginary odd)
    w(-z)       = 2 e^{-z^2} - w(z)   (reflection into the lower half-plane)

``w_full_plane`` applies them as one fold into x >= 0, y >= 0, as Poppe &
Wijers (ACM TOMS 16, 1990) do, so the real-axis series sees only x > 0.

On the real axis the refined series is its own y -> 0+ limit:
``series._refined`` writes the term at the nearest removable point
tau_m x = n pi in closed form, so only z = 0 (exactly 1) is special.

Accuracy in the lower half-plane is limited by cancellation in
2 e^{-z^2} - w(-z) near zeros of w; the reflection term also overflows
once y^2 - x^2 grows past the double exponent range, which is reported as
OverflowError rather than returning infinities.
"""

from __future__ import annotations

import cmath
import math

from .coefficients import CoefficientTable
from .errors import DomainError
from .series import EvaluationOutcome, Path, _refined, w_adaptive

__all__ = ["is_in_native_domain", "w_full_plane"]

# 2 e^{-z^2} has magnitude 2 e^{y^2 - x^2}; doubles top out near e^{709.8}.
_REFLECTION_OVERFLOW_LIMIT = 700.0


def is_in_native_domain(z: complex) -> bool:
    """True iff the series kernels can evaluate z directly (finite, Im z > 0)."""
    return z.imag > 0.0 and cmath.isfinite(z)


def w_full_plane(z: complex, coeffs: CoefficientTable) -> EvaluationOutcome:
    """Evaluate w(z) for any finite complex z.

    z = 0 returns exactly 1. The closed upper-right quadrant is evaluated
    directly, its real axis by the refined series at y = 0 (its y -> 0+
    limit), reported as ``Path.REFINED``. Any other z is reflected if y < 0,
    mirrored if x < 0, evaluated there by one nested call and unfolded.
    Raises DomainError on NaN/Inf input and OverflowError when the
    reflection term leaves the double range: y < 0 and y^2 - x^2 > 700,
    tested as (y - x)(y + x) on the folded point, never inf - inf.
    """
    x = z.real
    y = z.imag
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"w_full_plane requires a finite argument, got {z!r}")
    if z == 0:
        return EvaluationOutcome(1.0 + 0.0j, Path.EXACT_SPECIAL_CASE)
    if y > 0.0 and x >= 0.0:
        return w_adaptive(z, coeffs)
    if y == 0.0 and x > 0.0:
        return EvaluationOutcome(_refined(z, coeffs), Path.REFINED)
    reflect = y < 0.0
    if reflect:
        x, y = -x, -y
    mirror = x < 0.0
    if mirror:
        x = -x
    if reflect and (y - x) * (y + x) > _REFLECTION_OVERFLOW_LIMIT:
        raise OverflowError(f"2 exp(-z^2) overflows double precision at z = {z!r} "
                            f"(y^2 - x^2 > {_REFLECTION_OVERFLOW_LIMIT:g})")
    value = w_full_plane(complex(x, y), coeffs).value
    if mirror:
        value = value.conjugate()
    if reflect:
        value = 2.0 * cmath.exp(-z * z) - value
    return EvaluationOutcome(value, Path.SYMMETRY_EXTENDED)
