"""Extension of w(z) from the upper half-plane to all finite arguments.

The series kernels require Im z > 0. Everywhere else the standard
Faddeeva symmetries apply:

    w(-conj(z)) = conj(w(z))          (real part even in x, imaginary odd)
    w(-z)       = 2 e^{-z^2} - w(z)   (reflection into the lower half-plane)

On the real axis the finite-interval series stays valid as a limit: its
denominators vanish only at tau_m x = n pi, where the numerator vanishes
too, and the combined term has a finite limit. Those removable points are
handled by factoring the denominator and evaluating the ratio

    (e^{i d} - 1) / (-d (n pi + tau_m x)),   d = tau_m x - n pi,

with a cancellation-free numerator (-2 sin^2(d/2), sin d), which is
uniformly accurate in d. Accuracy in the lower half-plane is limited by
cancellation in 2 e^{-z^2} - w(-z) near zeros of w; the reflection term
also overflows once y^2 - x^2 grows past the double exponent range, which
is reported as OverflowError rather than returning infinities.
"""

from __future__ import annotations

import cmath
import math

from .coefficients import CoefficientTable
from .errors import DomainError
from .series import EvaluationOutcome, Path, w_adaptive

__all__ = ["is_in_native_domain", "w_full_plane"]

_SQRT_PI = math.sqrt(math.pi)

# 2 e^{-z^2} has magnitude 2 e^{y^2 - x^2}; doubles top out near e^{709.8}.
_REFLECTION_OVERFLOW_LIMIT = 700.0


def is_in_native_domain(z: complex) -> bool:
    """True iff the series kernels can evaluate z directly (finite, Im z > 0)."""
    return z.imag > 0.0 and cmath.isfinite(z)


def _w_real_axis(x: float, coeffs: CoefficientTable) -> complex:
    """Finite-interval series evaluated on the real axis (x != 0)."""
    tau = coeffs.params.tau_m
    tw = tau * x
    cos_tw = math.cos(tw)
    sin_tw = math.sin(tw)
    # i (1 - e^{i tw}) / tw
    lead = complex(sin_tw / tw, (1.0 - cos_tw) / tw)
    acc = 0j
    for n, a_n in enumerate(coeffs.a[1:], start=1):
        n_pi = n * math.pi
        d = tw - n_pi
        if d == 0.0:
            ratio = complex(0.0, -1.0 / (n_pi + tw))
        else:
            s_half = math.sin(0.5 * d)
            num = complex(-2.0 * s_half * s_half, math.sin(d))
            ratio = num / (-d * (n_pi + tw))
        acc += a_n * ratio
    return lead + 1j * (tau * tau * x / _SQRT_PI) * acc


def w_full_plane(z: complex, coeffs: CoefficientTable) -> EvaluationOutcome:
    """Evaluate w(z) for any finite complex z.

    z = 0 returns exactly 1. Arguments with x < 0, y > 0 are folded by
    conjugation, the lower half-plane by reflection, and the real axis is
    evaluated directly as the y -> 0+ limit of the refined series.
    Raises DomainError on NaN/Inf input and OverflowError when the
    reflection term exceeds the double range (y < 0 and y^2 - x^2 > 700).
    """
    x = z.real
    y = z.imag
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"w_full_plane requires a finite argument, got {z!r}")
    if z == 0:
        return EvaluationOutcome(complex(1.0, 0.0), Path.EXACT_SPECIAL_CASE)
    if y > 0.0:
        if x < 0.0:
            inner = w_full_plane(complex(-x, y), coeffs)
            return EvaluationOutcome(inner.value.conjugate(), Path.SYMMETRY_EXTENDED)
        return w_adaptive(z, coeffs)
    if y < 0.0:
        if y * y - x * x > _REFLECTION_OVERFLOW_LIMIT:
            raise OverflowError(
                f"2 exp(-z^2) overflows double precision at z = {z!r} "
                f"(y^2 - x^2 = {y * y - x * x:.6g} > {_REFLECTION_OVERFLOW_LIMIT:g})")
        reflected = w_full_plane(-z, coeffs).value
        return EvaluationOutcome(2.0 * cmath.exp(-z * z) - reflected,
                                 Path.SYMMETRY_EXTENDED)
    # y == 0, x != 0
    return EvaluationOutcome(_w_real_axis(x, coeffs), Path.REFINED)
