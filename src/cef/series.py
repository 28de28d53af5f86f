"""Series kernels for the complex error function w(z) on the upper half-plane.

Three closed-form evaluations of

    w(z) = (1/sqrt(pi)) * integral_0^inf exp(-tau^2/4 - y tau + i x tau) dtau,
    z = x + iy,  y > 0,

all derived from the cosine expansion of exp(-tau^2/4) held by a
CoefficientTable:

``w_refined``
    the finite-interval form,
    i (1 - e^{i tau_m z}) / (tau_m z)
      + i (tau_m^2 z / sqrt(pi)) sum_n a_n ((-1)^n e^{i tau_m z} - 1)
                                        / (n^2 pi^2 - tau_m^2 z^2),
    accurate down to very small y;

``w_cr``
    the Chiarella-Reichel pole sum (Chiarella & Reichel, Math. Comp. 22,
    1968), i/(tau_m z) - 2 i tau_m z sum_n e^{-n^2 pi^2/tau_m^2}
    / (n^2 pi^2 - tau_m^2 z^2), cheap but increasingly wrong as y drops
    below about 1;

``refining_part``
    the correction that turns the pole sum back into the finite-interval
    form. Its magnitude is bounded by e^{-tau_m y}, which is the whole
    point: for large y it is negligible.

``w_adaptive`` switches the refining part off whenever y >= y_switch and
reports which route produced the value. All functions are pure and safe to
call concurrently against a shared table. Summation runs in ascending n
with plain double accumulation; the terms decay like e^{-n^2 h^2}, so
compensated summation buys nothing at the tolerances targeted here.

Denominators n^2 pi^2 - tau_m^2 z^2 cannot vanish for y > 0 (their
imaginary part is -2 tau_m^2 x y, and for x = 0 they are real positive),
so no pole guards are needed; Python would raise ZeroDivisionError were
that ever violated.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import NamedTuple

from .coefficients import CoefficientTable
from .errors import DomainError

__all__ = ["Path", "EvaluationOutcome", "w_refined", "w_cr", "w_cr_h",
           "refining_part", "w_adaptive"]

_SQRT_PI = math.sqrt(math.pi)


class Path(enum.Enum):
    """Which code route produced an evaluation."""

    REFINED = "refined"
    COMMON_ONLY = "common_only"
    FULL_DECOMPOSITION = "full_decomposition"
    SYMMETRY_EXTENDED = "symmetry_extended"
    EXACT_SPECIAL_CASE = "exact_special_case"

    def __str__(self) -> str:  # CLI-friendly
        return self.value


class EvaluationOutcome(NamedTuple):
    """Value plus provenance of the route that computed it."""

    value: complex
    path: Path


def _reject_outside_native_domain(z: complex) -> None:
    raise DomainError(
        f"series kernels require Im z > 0, got z = {z!r}; "
        "use w_full_plane for other arguments")


def w_refined(z: complex, coeffs: CoefficientTable) -> complex:
    """Finite-interval series for w(z), Im z > 0.

    Reproduces the reference tables to full double precision over
    x in [0, 15], y down to 1e-4 and below.
    """
    if not z.imag > 0.0:
        _reject_outside_native_domain(z)
    tau = coeffs.params.tau_m
    tz = tau * z
    tz2 = tz * tz
    e_itz = cmath.exp(1j * tz)
    even_num = e_itz - 1.0
    odd_num = -e_itz - 1.0
    acc = 0j
    for n2pi2, a_n, odd in coeffs._refined_terms:
        acc += a_n * (odd_num if odd else even_num) / (n2pi2 - tz2)
    return 1j * (1.0 - e_itz) / tz + 1j * (tau * tau * z / _SQRT_PI) * acc


def w_cr(z: complex, coeffs: CoefficientTable) -> complex:
    """Chiarella-Reichel pole sum for w(z), Im z > 0.

    Noticeably faster than ``w_refined`` (no complex exponential, constant
    numerators) but only trustworthy for y around 1 and above; at small y
    it is documented to fail outright.
    """
    if not z.imag > 0.0:
        _reject_outside_native_domain(z)
    tz = coeffs.params.tau_m * z
    tz2 = tz * tz
    acc = 0j
    for n2pi2, c_n in coeffs._cr_terms:
        acc += c_n / (n2pi2 - tz2)
    return 1j / tz - 2j * tz * acc


def w_cr_h(z: complex, coeffs: CoefficientTable) -> complex:
    """The same pole sum in its traditional small-step parameterization,

        i h/(pi z) - i (2 h z/pi) sum_n e^{-n^2 h^2} / (n^2 h^2 - z^2),

    with h = pi/tau_m. Kept alongside ``w_cr`` as a consistency check on
    the parameterization; both share the stored exponential factors, so
    they normally agree to a couple of ulp (more where a denominator
    nearly cancels and magnifies the independent roundings).
    """
    if not z.imag > 0.0:
        _reject_outside_native_domain(z)
    h = coeffs.params.h
    z2 = z * z
    acc = 0j
    for n2h2, c_n in coeffs._h_terms:
        acc += c_n / (n2h2 - z2)
    return 1j * h / (math.pi * z) - 1j * (2.0 * h * z / math.pi) * acc


def _pole_sums(tz2: complex, coeffs: CoefficientTable) -> tuple[complex, complex]:
    """Both N-term sums over c_n / (n^2 pi^2 - tz2) in one ascending-n pass:
    the plain sum of the pole sum and the (-1)^n sum of the refining part.

    Each quotient is formed once and added to one sum, subtracted from or
    added to the other by the parity of n; the results equal those of two
    separate passes bit for bit.
    """
    common = 0j
    alternating = 0j
    for n2pi2, c_n, odd in coeffs._refine_terms:
        q = c_n / (n2pi2 - tz2)
        common += q
        if odd:
            alternating -= q
        else:
            alternating += q
    return common, alternating


def refining_part(z: complex, coeffs: CoefficientTable) -> complex:
    """Correction term -i e^{i tau_m z} [1/(tau_m z)
    - 2 tau_m z sum_n (-1)^n e^{-n^2 pi^2/tau_m^2} / (n^2 pi^2 - tau_m^2 z^2)].

    Adding it to ``w_cr`` recovers ``w_refined`` (the identity is an exact
    algebraic regrouping). |refining_part(z)| <= C e^{-tau_m y} with small C.
    The alternating sum comes from the same pass ``w_adaptive`` uses, so
    ``w_cr(z) + refining_part(z)`` equals its full route bit for bit.
    """
    if not z.imag > 0.0:
        _reject_outside_native_domain(z)
    tz = coeffs.params.tau_m * z
    _, alternating = _pole_sums(tz * tz, coeffs)
    return -1j * cmath.exp(1j * tz) * (1.0 / tz - 2.0 * tz * alternating)


def w_adaptive(z: complex, coeffs: CoefficientTable) -> EvaluationOutcome:
    """Evaluate w(z) for Im z > 0, engaging the refining part only when
    y < y_switch (strictly; the boundary itself runs the cheap route).

    The y >= y_switch branch is exactly ``w_cr``: no complex exponential,
    one N-term sum (inlined to keep the fast path free of call overhead).
    The full route is the literal sum of the common and refining parts,
    with tau_m z, its square and e^{i tau_m z} computed once per call and
    one pass over the terms feeding both parts: each quotient
    c_n / (n^2 pi^2 - tau_m^2 z^2) is divided out once, not twice.
    """
    if not z.imag > 0.0:
        _reject_outside_native_domain(z)
    params = coeffs.params
    tz = params.tau_m * z
    tz2 = tz * tz
    if z.imag >= params.y_switch:
        acc = 0j
        for n2pi2, c_n in coeffs._cr_terms:
            acc += c_n / (n2pi2 - tz2)
        return EvaluationOutcome(1j / tz - 2j * tz * acc, Path.COMMON_ONLY)
    common, alternating = _pole_sums(tz2, coeffs)
    value = ((1j / tz - 2j * tz * common)
             + (-1j * cmath.exp(1j * tz) * (1.0 / tz - 2.0 * tz * alternating)))
    return EvaluationOutcome(value, Path.FULL_DECOMPOSITION)
