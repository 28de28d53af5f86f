"""Extension of w(z) from the upper half-plane to all finite arguments.

The series kernels require Im z > 0. Everywhere else the standard
Faddeeva symmetries apply:

    w(-conj(z)) = conj(w(z))          (real part even in x, imaginary odd)
    w(-z)       = 2 e^{-z^2} - w(z)   (reflection into the lower half-plane)

``w_full_plane`` applies them as one fold into x >= 0, y >= 0, as Poppe &
Wijers (ACM TOMS 16, 1990) do, so the real-axis series sees only x > 0.

The positive real axis goes to ``series._edge``, which owns the rule for
every point the compiled sums do not take: the refined series, its own
y -> 0+ limit there (it writes the term at the nearest removable point
tau_m x = n pi in closed form), and the continued fraction past the x
where (tau_m x)^2 overflows (~1.1e153 at tau_m = 12). Only z = 0
(exactly 1) is special.

Accuracy in the lower half-plane is limited by cancellation in
2 e^{-z^2} - w(-z) near zeros of w, and by the rounding of -z^2 in
e^{-z^2}, which grows with |z|^2 near the diagonal |y| = |x|. The
reflection term overflows once y^2 - x^2 grows past the double exponent
range, which is reported as OverflowError rather than returning
infinities; where it underflows it is left out.
"""

from __future__ import annotations

import cmath
import math
import sys

from .coefficients import CoefficientTable
from .errors import _require_upper_half_plane
from .series import (_EXACT_SPECIAL_CASE, _SYMMETRY_EXTENDED, EvaluationOutcome, _edge,
                     _new_outcome, w_adaptive)

__all__ = ["w_full_plane"]

# 2 e^{-z^2} has magnitude 2 e^{y^2 - x^2}; doubles top out near e^{709.8}
# and e^{-745.2} rounds to 0.0 (the least subnormal is e^{-744.4})
_REFLECTION_OVERFLOW_LIMIT = 700.0
_REFLECTION_UNDERFLOW_LIMIT = -746.0
# 2xy, the phase of e^{-z^2}, overflows once x * y exceeds this
_HALF_MAX = sys.float_info.max / 2.0


def w_full_plane(z: complex, coeffs: CoefficientTable) -> EvaluationOutcome:
    """Evaluate w(z) for any finite complex z.

    z = 0 returns exactly 1. The closed upper-right quadrant is evaluated
    directly, its real axis by ``series._edge``: the refined series at
    y = 0 (its y -> 0+ limit), reported as ``Path.REFINED``, or the
    continued fraction where (tau_m x)^2 overflows, reported as
    ``Path.CONTINUED_FRACTION``.
    Any other z is reflected if y < 0, mirrored if x < 0, evaluated there
    by one nested call and unfolded. The reflection term 2 e^{-z^2} is
    dropped where y^2 - x^2 < -746, because it is 0.0 there; that also
    keeps z * z (inf - inf = NaN past |z| ~ 1.3e154) out of the result.
    Raises DomainError on NaN/Inf input and OverflowError when the
    reflection term leaves the double range: y < 0 and y^2 - x^2 > 700,
    tested as (y - x)(y + x) on the folded point, never inf - inf, or
    y = x past ~9.5e153, where the phase 2xy of e^{-z^2} overflows.
    """
    x = z.real
    y = z.imag
    if not (math.isfinite(x) and math.isfinite(y)):
        _require_upper_half_plane(z, "w_full_plane")
    if z == 0:
        return _new_outcome(EvaluationOutcome, (1.0 + 0.0j, _EXACT_SPECIAL_CASE))
    if y > 0.0 and x >= 0.0:
        return w_adaptive(z, coeffs)
    if y == 0.0 and x > 0.0:
        return _edge(z, coeffs)
    reflect = y < 0.0
    if reflect:
        x, y = -x, -y
    mirror = x < 0.0
    if mirror:
        x = -x
    if reflect:
        exponent = (y - x) * (y + x)
        if exponent > _REFLECTION_OVERFLOW_LIMIT:
            raise OverflowError(f"2 exp(-z^2) overflows double precision at z = {z!r} "
                                f"(y^2 - x^2 > {_REFLECTION_OVERFLOW_LIMIT:g})")
    value = w_full_plane(complex(x, y), coeffs).value
    if mirror:
        value = value.conjugate()
    if reflect:
        if exponent < _REFLECTION_UNDERFLOW_LIMIT:
            value = -value
        elif x * y <= _HALF_MAX:
            value = 2.0 * cmath.exp(-z * z) - value
        else:
            raise OverflowError(f"the phase 2xy of exp(-z^2) overflows double "
                                f"precision at z = {z!r}")
    return _new_outcome(EvaluationOutcome, (value, _SYMMETRY_EXTENDED))
