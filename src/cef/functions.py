"""Functions derived from w(z): the Voigt function, its odd companion,
and the complementary error function for complex argument.

K(x, y) = Re w(x + iy) is the Voigt line-shape function; L(x, y) =
Im w(x + iy) is its odd-in-x companion. erfc follows from the identity
erfc(z) = e^{-z^2} w(iz). The direct pole-sum approximation of erfc
(``erfc_cr_series``) is retained for validation; it evaluates the same
compiled pole sum as ``w_cr`` and, like it, is only accurate at larger
Re z.
"""

from __future__ import annotations

import cmath

from .coefficients import CoefficientTable
from .errors import DomainError
from .plane import w_full_plane
from .series import w_adaptive

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
    """Complementary error function via erfc(z) = e^{-z^2} w(iz).

    Routed through the full-plane evaluator: iz maps large Re z to large
    Im of the w argument, where the cheap pole-sum route applies.
    OverflowError propagates from e^{-z^2} or from the reflection inside
    w_full_plane when the intermediate terms leave the double range.
    """
    prefactor = cmath.exp(-z * z)
    return prefactor * w_full_plane(1j * z, coeffs).value


def erfc_cr_series(z: complex, coeffs: CoefficientTable) -> complex:
    """Direct pole-sum approximation of erfc,

        e^{-z^2} (1/(tau_m z) + 2 tau_m z sum_n e^{-n^2 pi^2/tau_m^2}
                                             / (n^2 pi^2 + tau_m^2 z^2)),

    the table's compiled pole sum at u = -(tau_m z)^2. Accurate only for
    larger Re z (it is the pole sum of w evaluated at iz, so the small-Im
    restriction of that series turns into a small-Re restriction here).
    z = 0 is an explicit pole.
    """
    if z == 0:
        raise DomainError("erfc_cr_series has an explicit pole at z = 0")
    tz = coeffs.params.tau_m * z
    return cmath.exp(-z * z) * (1.0 / tz + 2.0 * tz * coeffs._pole_sum(-(tz * tz)))
