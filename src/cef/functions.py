"""Functions derived from w(z): the Voigt function, its odd companion,
and the complementary error function for complex argument.

K(x, y) = Re w(x + iy) is the Voigt line-shape function; L(x, y) =
Im w(x + iy) is its odd-in-x companion. erfc follows from the identity
erfc(z) = e^{-z^2} w(iz) for Re z >= 0 and from erfc(z) = 2 - erfc(-z)
for Re z < 0; L and erfc take w from ``w_full_plane``. The direct
pole-sum approximation of erfc (``erfc_cr_series``), kept for validation,
evaluates the same compiled pole sum as ``w_cr`` and, like it, is only
accurate at larger Re z. Both erfc functions take e^{-z^2} and its range
rules from ``plane._exp_neg_square``.
"""

from __future__ import annotations

import cmath

from .coefficients import CoefficientTable
from .errors import DomainError, _require_upper_half_plane
from .plane import _exp_neg_square, w_full_plane
from .series import _FAR_ABS, _continued_fraction, _finite, _scaled, w_adaptive

__all__ = ["voigt_k", "imag_l", "erfc_complex", "erfc_cr_series"]


def voigt_k(x: float, y: float, coeffs: CoefficientTable) -> float:
    """Voigt function K(x, y) = Re w(x + iy), y > 0.

    Evaluated at |x|, so even in x by construction. The continued fraction
    answers where |z| >= 7 (``series._FAR_ABS``, tested inline: a shared
    test made a line-shape batch 2.4% slower), ``w_adaptive`` elsewhere,
    which raises DomainError for y <= 0 and non-finite arguments.

    Worst relative error by region (README's table): against
    scipy.special.wofz, 2.6e-13 at |x| < 3 for y < 1 (1.6e-10 just above
    y_switch = 1, the pole sum) and 1.2e-15 at |x| >= 10; against 60-digit
    mpmath, 1.5e-15 at 7 <= |x| < 10 for y >= 1e-16 and 7.2e-15 below (the
    rounding of x^2 in e^{-x^2}). At 3 <= |x| < 7 the error is ~eps |w|,
    so it grows as Re w falls to e^{-x^2}: 2.0e-11 for y in [1e-4, 1),
    1.9e-7 in [1e-8, 1e-4), ~23 at (6.97, 1.1e-16), ~4e4 below y ~ 1e-16.
    """
    z = complex(abs(x), y)
    if y > 0.0 and (y >= _FAR_ABS or abs(z) >= _FAR_ABS) and cmath.isfinite(z):
        return _continued_fraction(z).real
    return w_adaptive(z, coeffs).value.real


def imag_l(x: float, y: float, coeffs: CoefficientTable) -> float:
    """L(x, y) = Im w(x + iy), y > 0: the imaginary part of ``w_full_plane``,
    whose exact conjugation for x < 0 makes it odd in x. DomainError for
    y <= 0 and non-finite arguments."""
    z = complex(x, y)
    _require_upper_half_plane(z, "imag_l")
    return w_full_plane(z, coeffs).value.imag


def erfc_complex(z: complex, coeffs: CoefficientTable) -> complex:
    """Complementary error function: erfc(z) = e^{-z^2} w(iz) for
    Re z >= 0 and erfc(z) = 2 - erfc(-z) for Re z < 0.

    For Re z >= 0 the w argument iz lies in the closed upper half-plane,
    so w_full_plane never reflects, and large Re z maps to large Im iz,
    where the cheap pole-sum route applies, or from |z| = 7 on the
    continued fraction. The identity on the left half
    carries erfc -> 2 without the reflection's overflow or cancellation.
    e^{-z^2} comes from ``plane._exp_neg_square``: the result is 0 where it
    underflows, and OverflowError propagates where it leaves the double
    range, ~ln(sqrt(pi) |z|) before erfc itself does: 1 + 26.7i raises,
    though erfc there is -1.392e306 + 3.122e307i.
    """
    if z.real < 0.0:
        return 2.0 - erfc_complex(-z, coeffs)
    return w_full_plane(1j * z, coeffs).value * _exp_neg_square(z)


def erfc_cr_series(z: complex, coeffs: CoefficientTable) -> complex:
    """Direct pole-sum approximation of erfc,

        e^{-z^2} (1/(tau_m z) + 2 tau_m z sum_n e^{-n^2 pi^2/tau_m^2}
                                             / (n^2 pi^2 + tau_m^2 z^2)),

    the table's compiled pole sum at u = -(tau_m z)^2. Accurate only for
    larger Re z (it is the pole sum of w evaluated at iz, so the small-Im
    restriction of that series turns into a small-Re restriction here).
    Its poles, z = 0 (of 1/(tau_m z)) and z = +-i n pi / tau_m (n = 1..N,
    of the sum), raise DomainError through one ZeroDivisionError handler;
    a non-finite z raises it too. OverflowError is raised where (tau_m z)^2
    or the value is not finite (the latter for subnormal |z|, where
    1/(tau_m z) overflows).
    """
    tz, tz2 = _scaled(z, coeffs)
    try:
        series = 1.0 / tz + 2.0 * tz * coeffs._pole_sum(-tz2)
    except ZeroDivisionError:
        raise DomainError(f"erfc_cr_series has an explicit pole at z = {z!r}") from None
    return _finite(_exp_neg_square(z) * series, z)
