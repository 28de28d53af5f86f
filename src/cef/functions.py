"""Functions derived from w(z): the Voigt function, its odd companion,
and the complementary error function for complex argument.

K(x, y) = Re w(x + iy) is the Voigt line-shape function; L(x, y) =
Im w(x + iy) is its odd-in-x companion. erfc follows from the identity
erfc(z) = e^{-z^2} w(iz) for Re z >= 0 and from erfc(z) = 2 - erfc(-z)
for Re z < 0; L and erfc take w from ``w_full_plane``. The direct
pole-sum approximation of erfc (``erfc_cr_series``), kept for validation,
is e^{-z^2} w_cr(iz): the table's compiled common part at i tau_m z, so,
like ``w_cr``, it is only accurate at larger Re z. Both erfc functions take
e^{-z^2} and its range rules from ``plane._exp_neg_square``, and fold Im z < 0
or -0.0 to conj erfc(conj z): erfc(conj z) = conj erfc(z) bit for bit.
"""

from __future__ import annotations

import cmath
import math

from .coefficients import CoefficientTable
from .errors import DomainError, _require_upper_half_plane
from .plane import _exp_neg_square, w_full_plane
from .series import _FAR_ABS, _continued_fraction, _finite, _scaled, w_adaptive

__all__ = ["voigt_k", "imag_l", "erfc_complex", "erfc_cr_series"]


def voigt_k(x: float, y: float, coeffs: CoefficientTable) -> float:
    """Voigt function K(x, y) = Re w(x + iy), y > 0.

    Evaluated at |x|, so even in x by construction. The continued fraction
    answers where |z| >= 7 (``coefficients._FAR_ABS``, tested inline: a shared
    test made a line-shape batch 2.4% slower), ``w_adaptive`` elsewhere,
    which raises DomainError for y <= 0 and non-finite arguments.

    Worst relative error by region (README's table): against
    scipy.special.wofz, 2.9e-13 at |x| < 3 for y < 1 and 1.2e-15 at |x| >= 10;
    against 40-digit mpmath, 4.8e-10 at y = y_switch = 1 and |x| < 3 (the pole
    sum, at K(0, 1)), and 1.5e-15 at 7 <= |x| < 10 for y >= 1e-16 and 7.2e-15
    below (the rounding of x^2 in e^{-x^2}, against 60 digits). At 3 <= |x| < 7
    the error is ~eps |w|, so it grows as Re w falls to e^{-x^2}: 2.3e-11 for y
    in [1e-4, 1), 2.2e-7 in [1e-8, 1e-4), ~21 at (6.97, 1.1e-16), ~4e4 below y ~ 1e-16.
    """
    z = complex(abs(x), y)
    if y > 0.0 and (y >= _FAR_ABS or abs(z) >= _FAR_ABS) and cmath.isfinite(z):
        return _continued_fraction(z).real
    return w_adaptive(z, coeffs)[0].real


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
    e^{-z^2} w(iz) is ``plane._exp_neg_square(z, w(iz))``: 0 where e^{-z^2}
    underflows, w(iz) h h with h = e^{-z^2/2} where it alone overflows (1 +
    26.7i gives -1.392e306 + 3.122e307i), OverflowError only where erfc
    itself leaves the doubles (1 + 27i) or z^2 has no phase 2xy in doubles.
    Re erfc(iy) = 1 is returned exactly, which the product missed by ~1 ulp,
    and by 6.2e-15 where Re w(-y) = e^{-y^2} is subnormal (+-26.7i).
    """
    if math.copysign(1.0, z.imag) < 0.0:
        return _conjugate(erfc_complex, z, coeffs)
    if not cmath.isfinite(z):
        raise DomainError(f"erfc_complex requires a finite argument, got z = {z!r}")
    if z.real < 0.0:   # e^{-(-z)^2} is e^{-z^2}: (-z) * (-z) is z * z bit for bit
        return 2.0 - _exp_neg_square(z, w_full_plane(1j * -z, coeffs)[0])
    value = _exp_neg_square(z, w_full_plane(1j * z, coeffs)[0])
    return complex(1.0, value.imag) if z.real == 0.0 else value


def _conjugate(erfc, z: complex, coeffs: CoefficientTable) -> complex:
    """conj erfc(conj z); an error, raised at conj z, names z instead."""
    try:
        return erfc(z.conjugate(), coeffs).conjugate()
    except (DomainError, OverflowError) as error:
        raise type(error)(str(error).replace(repr(z.conjugate()), repr(z))) from None


def erfc_cr_series(z: complex, coeffs: CoefficientTable) -> complex:
    """Direct pole-sum approximation of erfc, e^{-z^2} w_cr(iz),

        e^{-z^2} (1/(tau_m z) + 2 tau_m z sum_n e^{-n^2 pi^2/tau_m^2}
                                             / (n^2 pi^2 + tau_m^2 z^2)),

    the table's compiled common part at i tau_m z and u = -(tau_m z)^2. Where
    w(iz) takes the common part alone, this is ``erfc_complex``'s value bit for
    bit. Accurate only for larger Re z: at iz, the pole sum's small-Im
    restriction becomes a small-Re one.
    Its poles, z = 0 (of 1/(tau_m z)) and z = +-i n pi / tau_m (n = 1..N,
    of the sum), raise DomainError through one ZeroDivisionError handler;
    a non-finite z raises it too. OverflowError is raised where ``_scaled``
    raises it and where the value is not finite (the latter for subnormal
    |z|, where 1/(tau_m z) overflows).
    """
    if math.copysign(1.0, z.imag) < 0.0:
        return _conjugate(erfc_cr_series, z, coeffs)
    tz, tz2 = _scaled(z, coeffs)
    try:
        common = coeffs._common_part(1j * tz, -tz2)
    except ZeroDivisionError:
        raise DomainError(f"erfc_cr_series has an explicit pole at z = {z!r}") from None
    return _finite(_exp_neg_square(z, common), z)
