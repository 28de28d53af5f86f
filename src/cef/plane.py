"""Extension of w(z) from the upper half-plane to all finite arguments.

The series kernels require Im z > 0. Everywhere else the standard
Faddeeva symmetries apply:

    w(-conj(z)) = conj(w(z))          (real part even in x, imaginary odd)
    w(-z)       = 2 e^{-z^2} - w(z)   (reflection into the lower half-plane)

``w_full_plane`` applies them as one fold into x >= 0, y >= 0, as Poppe &
Wijers (ACM TOMS 16, 1990) do, so the real-axis series sees only x >= 0.

In the quadrant, the real axis, origin included, and every point with
|z| >= 7 (``coefficients._FAR_ABS``) go to ``series._edge``, which only routes,
the rest to ``w_adaptive``; no point is special.

e^{-z^2}, of the reflection here and of erfc(z) = e^{-z^2} w(iz) in
``functions``, is formed in one place, ``_exp_neg_square``, with its range
rules. Accuracy in the lower half-plane is limited by cancellation in
2 e^{-z^2} - w(-z) near zeros of w, and by the rounding of -z^2 in
e^{-z^2}, which grows with |z|^2 near the diagonal |y| = |x|.
"""

from __future__ import annotations

import cmath

from .coefficients import CoefficientTable
from .errors import _require_upper_half_plane
from .series import (_FAR_ABS, _SYMMETRY_EXTENDED, EvaluationOutcome, _edge, _new_outcome,
                     w_adaptive)

__all__ = ["w_full_plane"]

# e^{-z^2} has magnitude e^{y^2 - x^2}; doubles top out near e^{709.8}
# and e^{-745.2} rounds to 0.0 (the least subnormal is e^{-744.4})
_REFLECTION_OVERFLOW_LIMIT = 700.0
_UNDERFLOW_LIMIT = -746.0


def _exp_neg_square(z: complex, factor: complex) -> complex:
    """e^{-z^2} * factor for finite z; 0j * factor where y^2 - x^2 < -746,
    tested as (y - x)(y + x): e^{-z^2} is 0.0 there and z * z may be
    inf - inf. OverflowError where z * z is not finite otherwise (on y = +-x
    past ~9.5e153 its phase 2xy is not a double). Where e^{-z^2} overflows
    (y^2 - x^2 >~ 709.78), factor h h with h = e^{-z^2/2} (halving -z^2 is
    exact), and OverflowError only where that is not finite either."""
    x = z.real
    y = z.imag
    if (y - x) * (y + x) < _UNDERFLOW_LIMIT:
        return 0j * factor
    neg_square = -z * z
    if not cmath.isfinite(neg_square):
        raise OverflowError(f"exp(-z^2) overflowed at z = {z!r}: z^2 or its phase 2xy "
                            f"is not a double")
    try:
        return cmath.exp(neg_square) * factor
    except OverflowError:
        half = cmath.exp(neg_square * 0.5)
    if cmath.isfinite(value := factor * half * half):
        return value
    raise OverflowError(f"exp(-z^2) times {factor!r} overflowed at z = {z!r}")


def w_full_plane(z: complex, coeffs: CoefficientTable) -> EvaluationOutcome:
    """Evaluate w(z) for any finite complex z.

    The closed upper-right quadrant is evaluated directly: by
    ``w_adaptive`` where y > 0 and |z| < 7, elsewhere by ``series._edge``,
    that is by the continued fraction where |z| >= 7, reported as
    ``Path.CONTINUED_FRACTION``, and on the real axis closer in, origin
    included, by the refined series at y = 0 (its y -> 0+ limit), whose axis
    identities give Re w = e^{-x^2} and Im w near x = 0, reported as
    ``Path.REFINED``; w(0) is exactly 1.
    Any other z is reflected if y < 0, mirrored if x < 0, evaluated there
    by one nested call and unfolded, the reflection with 2 e^{-z^2} from
    ``_exp_neg_square``, which is 0 where y^2 - x^2 < -746.
    Raises DomainError on NaN/Inf input and OverflowError when the
    reflection term leaves the double range: y < 0 and y^2 - x^2 > 700,
    tested as (y - x)(y + x) on the folded point, never inf - inf, or
    y = x past ~9.5e153, where the phase 2xy of e^{-z^2} overflows.
    NaN or inf fails the first test, the common quadrant case; the finite check follows it.
    """
    x = z.real
    y = z.imag
    if x >= 0.0 and 0.0 < y < _FAR_ABS and abs(z) < _FAR_ABS:
        return w_adaptive(z, coeffs)
    if not cmath.isfinite(z):
        _require_upper_half_plane(z, "w_full_plane")
    if y >= 0.0 and x >= 0.0:
        return _edge(z, coeffs)
    reflect = y < 0.0
    if reflect:
        x, y = -x, -y
    mirror = x < 0.0
    if mirror:
        x = -x
    if reflect and (y - x) * (y + x) > _REFLECTION_OVERFLOW_LIMIT:
        raise OverflowError(f"2 exp(-z^2) overflows double precision at z = {z!r} "
                            f"(y^2 - x^2 > {_REFLECTION_OVERFLOW_LIMIT:g})")
    value = w_full_plane(complex(x, y), coeffs)[0]
    if mirror:
        value = value.conjugate()
    if reflect:
        # not 2 e - value: where e is 0 that turns a -0.0 part of -value
        # into +0.0
        value = -(value - _exp_neg_square(z, 2.0))
    return _new_outcome(EvaluationOutcome, (value, _SYMMETRY_EXTENDED))
