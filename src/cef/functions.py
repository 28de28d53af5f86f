"""Functions derived from w(z): the Voigt function, its odd companion,
and the complementary error function for complex argument.

K(x, y) = Re w(x + iy) is the Voigt line-shape function; L(x, y) =
Im w(x + iy) is its odd-in-x companion. erfc follows from the identity
erfc(z) = e^{-z^2} w(iz) for Re z >= 0 and from erfc(z) = 2 - erfc(-z)
for Re z < 0. The direct pole-sum approximation of erfc
(``erfc_cr_series``) is retained for validation; it evaluates the same
compiled pole sum as ``w_cr`` and, like it, is only accurate at larger
Re z.
"""

from __future__ import annotations

import cmath

from .coefficients import CoefficientTable
from .errors import DomainError
from .plane import _REFLECTION_UNDERFLOW_LIMIT, w_full_plane
from .series import _finite, _scaled, w_adaptive

__all__ = ["voigt_k", "imag_l", "erfc_complex", "erfc_cr_series"]


def voigt_k(x: float, y: float, coeffs: CoefficientTable) -> float:
    """Voigt function K(x, y) = Re w(x + iy), y > 0.

    Evenness in x is enforced structurally by evaluating at |x|. y <= 0 and
    non-finite arguments raise DomainError from ``w_adaptive``.
    """
    return w_adaptive(complex(abs(x), y), coeffs).value.real


def imag_l(x: float, y: float, coeffs: CoefficientTable) -> float:
    """L(x, y) = Im w(x + iy), y > 0. Odd in x by construction; domain
    errors as for ``voigt_k``."""
    if x < 0.0:
        return -w_adaptive(complex(-x, y), coeffs).value.imag
    return w_adaptive(complex(x, y), coeffs).value.imag


def erfc_complex(z: complex, coeffs: CoefficientTable) -> complex:
    """Complementary error function: erfc(z) = e^{-z^2} w(iz) for
    Re z >= 0 and erfc(z) = 2 - erfc(-z) for Re z < 0.

    For Re z >= 0 the w argument iz lies in the closed upper half-plane,
    so w_full_plane never reflects, and large Re z maps to large Im iz,
    where the cheap pole-sum route applies. The identity on the left half
    carries erfc -> 2 without the reflection's overflow or cancellation.
    OverflowError propagates from e^{-z^2} when |Im z|^2 - (Re z)^2
    leaves the double range, as erfc itself does there. Past |z| ~ 1.3e154,
    where z * z is inf - inf, the result is 0 if e^{-z^2} underflows and
    OverflowError otherwise (its phase 2xy is not a double there).
    """
    if z.real < 0.0:
        return 2.0 - erfc_complex(-z, coeffs)
    w = w_full_plane(1j * z, coeffs).value
    zz = z * z
    if not cmath.isfinite(zz):
        x, y = z.real, abs(z.imag)
        if (y - x) * (y + x) < _REFLECTION_UNDERFLOW_LIMIT:
            return 0j
        raise OverflowError(f"erfc_complex: exp(-z^2) overflowed at z = {z!r}")
    return cmath.exp(-zz) * w


def erfc_cr_series(z: complex, coeffs: CoefficientTable) -> complex:
    """Direct pole-sum approximation of erfc,

        e^{-z^2} (1/(tau_m z) + 2 tau_m z sum_n e^{-n^2 pi^2/tau_m^2}
                                             / (n^2 pi^2 + tau_m^2 z^2)),

    the table's compiled pole sum at u = -(tau_m z)^2. Accurate only for
    larger Re z (it is the pole sum of w evaluated at iz, so the small-Im
    restriction of that series turns into a small-Re restriction here).
    z = 0 and z = +-i n pi / tau_m (n = 1..N, where a denominator
    vanishes) are explicit poles; they and a non-finite z raise
    DomainError. OverflowError is raised where (tau_m z)^2 or the value is
    not finite (the latter for subnormal |z|, where 1/(tau_m z) overflows).
    """
    if z == 0:
        raise DomainError("erfc_cr_series has an explicit pole at z = 0")
    tz, tz2 = _scaled(z, coeffs)
    try:
        pole_sum = coeffs._pole_sum(-tz2)
    except ZeroDivisionError:
        raise DomainError(f"erfc_cr_series has an explicit pole at z = {z!r}") from None
    return _finite(cmath.exp(-z * z) * (1.0 / tz + 2.0 * tz * pole_sum), z)
