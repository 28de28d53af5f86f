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
    accurate down to y = 0 (see below);

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
call concurrently against a shared table, and all reject arguments that
are not finite or not in the upper half-plane with DomainError. Summation
runs in ascending n with plain double accumulation; the terms decay like
e^{-n^2 h^2}, so compensated summation buys nothing at the tolerances
targeted here.

The pole sum and the refining sum, which carry the timed paths, are the
table's compiled straight-line functions ``_pole_sum`` and ``_pole_sums``
(see CoefficientTable); the finite-interval form is one loop, ``_refined``.

At the removable points tau_m z = n pi (n = 0 is the origin) a numerator
and a denominator vanish together, and both forms lose ~eps/|tau_m z - n pi|.
``_refined`` writes the term at the nearest such point in closed form, so
y = 0 and z -> 0 are ordinary arguments for it; ``w_adaptive`` sends the
points where the compiled sums would lose accuracy to it. No other
denominator n^2 pi^2 - tau_m^2 z^2 can vanish for y >= 0.
"""

from __future__ import annotations

import cmath
import enum
import math
from itertools import cycle, islice
from typing import NamedTuple

from .coefficients import CoefficientTable
from .errors import DomainError

__all__ = ["Path", "EvaluationOutcome", "w_refined", "w_cr", "refining_part",
           "w_adaptive"]

_SQRT_PI = math.sqrt(math.pi)

# w_adaptive uses _refined where Im tau_m z and |Im e^{i tau_m z}| (that is,
# ~|tau_m x - n pi|) are below this: outside, the compiled sums are within
# 1.3e-14 of scipy.special.wofz (3.9e-14 at 0.02)
_NEAR_POLE = 0.05


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
    """Raise for an argument that failed a kernel's guard,
    ``z.imag > 0.0 and cmath.isfinite(z)``."""
    if not cmath.isfinite(z):
        raise DomainError(f"series kernels require a finite argument, got z = {z!r}")
    raise DomainError(
        f"series kernels require Im z > 0, got z = {z!r}; "
        "use w_full_plane for other arguments")


def _refined(z: complex, coeffs: CoefficientTable) -> complex:
    """The finite-interval series, unguarded, for Im z >= 0.

    With n* the nearest integer to Re tau_m z / pi and d = tau_m z - n* pi,
    the term that cancels is written as -a_|n*| E(d) / (n* pi + tau_m z)
    (the lead term -i E(d) for n* = 0), E(d) = (e^{i d} - 1) / d
    = i (sin h / h) e^{i h} with h = d/2; sin(h)/h, not 2 sin(h)/d, so that
    a subnormal d, which halves inexactly, adds no rounding. Only for
    |d| < 1 and |n*| <= N: beyond, no term cancels and sin h overflows at
    large y. Elsewhere the loop is the plain one, term for term.
    """
    tau = coeffs.params.tau_m
    tz = tau * z
    tz2 = tz * tz
    e_itz = cmath.exp(1j * tz)
    even_num = e_itz - 1.0
    odd_num = -e_itz - 1.0
    # nearest n* with |n*| <= N; beyond that, n* = 0 leaves |d| > 1
    reach = (len(coeffs._poles) + 0.5) * math.pi
    n_near = round(tz.real / math.pi) if abs(tz.real) < reach else 0
    d = tz - n_near * math.pi
    near = abs(d) < 1.0
    if near:
        h = 0.5 * d
        e_d = 1j * (cmath.sin(h) / h if h else 1.0) * cmath.exp(1j * h)
    lead = -1j * e_d if near and n_near == 0 else 1j * (1.0 - e_itz) / tz
    # n = 1, 2, ... takes the numerator (-1)^n e^{i tau_m z} - 1
    terms = zip(coeffs._poles, coeffs.a[1:], cycle((odd_num, even_num)))
    acc = 0j
    if near and n_near:
        for n2pi2, a_n, num in islice(terms, abs(n_near) - 1):
            acc += a_n * num / (n2pi2 - tz2)
        acc -= next(terms)[1] * e_d / (n_near * math.pi + tz)
    for n2pi2, a_n, num in terms:
        acc += a_n * num / (n2pi2 - tz2)
    return lead + 1j * (tau * tau * z / _SQRT_PI) * acc


def w_refined(z: complex, coeffs: CoefficientTable) -> complex:
    """Finite-interval series for w(z), Im z > 0.

    Reproduces the reference tables to full double precision over
    x in [0, 15] and stays accurate as y -> 0, removable points included.
    """
    if not (z.imag > 0.0 and cmath.isfinite(z)):
        _reject_outside_native_domain(z)
    return _refined(z, coeffs)


def w_cr(z: complex, coeffs: CoefficientTable) -> complex:
    """Chiarella-Reichel pole sum for w(z), Im z > 0.

    Noticeably faster than ``w_refined`` (no complex exponential, constant
    numerators) but only trustworthy for y around 1 and above; at small y
    it is documented to fail outright.
    """
    if not (z.imag > 0.0 and cmath.isfinite(z)):
        _reject_outside_native_domain(z)
    tz = coeffs.params.tau_m * z
    return 1j / tz - 2j * tz * coeffs._pole_sum(tz * tz)


def refining_part(z: complex, coeffs: CoefficientTable) -> complex:
    """Correction term -i e^{i tau_m z} [1/(tau_m z)
    - 2 tau_m z sum_n (-1)^n e^{-n^2 pi^2/tau_m^2} / (n^2 pi^2 - tau_m^2 z^2)].

    Adding it to ``w_cr`` recovers ``w_refined`` (the identity is an exact
    algebraic regrouping). |refining_part(z)| <= C e^{-tau_m y} with small C.
    The alternating sum comes from the same compiled pass ``w_adaptive``
    uses, so ``w_cr(z) + refining_part(z)`` equals its full route bit for
    bit.
    """
    if not (z.imag > 0.0 and cmath.isfinite(z)):
        _reject_outside_native_domain(z)
    tz = coeffs.params.tau_m * z
    _, alternating = coeffs._pole_sums(tz * tz)
    return -1j * cmath.exp(1j * tz) * (1.0 / tz - 2.0 * tz * alternating)


def w_adaptive(z: complex, coeffs: CoefficientTable) -> EvaluationOutcome:
    """Evaluate w(z) for Im z > 0, engaging the refining part only when
    y < y_switch (strictly; the boundary itself runs the cheap route).

    The y >= y_switch branch is exactly ``w_cr``: no complex exponential,
    one N-term sum (the table's compiled ``_pole_sum``, called directly so
    the fast path skips the extra call through ``w_cr``).
    The full route is the literal sum of the common and refining parts,
    with tau_m z, its square and e^{i tau_m z} computed once per call and
    one pass over the terms feeding both parts: each quotient
    c_n / (n^2 pi^2 - tau_m^2 z^2) is divided out once, not twice.
    Where Im tau_m z and |Im e^{i tau_m z}| are below _NEAR_POLE, next to a
    removable point, ``_refined`` answers instead, as ``Path.REFINED``.
    Non-finite arguments raise DomainError.
    """
    if not (z.imag > 0.0 and cmath.isfinite(z)):
        _reject_outside_native_domain(z)
    params = coeffs.params
    tz = params.tau_m * z
    tz2 = tz * tz
    if z.imag >= params.y_switch:
        return EvaluationOutcome(1j / tz - 2j * tz * coeffs._pole_sum(tz2),
                                 Path.COMMON_ONLY)
    e_itz = cmath.exp(1j * tz)
    if tz.imag < _NEAR_POLE and abs(e_itz.imag) < _NEAR_POLE:
        return EvaluationOutcome(_refined(z, coeffs), Path.REFINED)
    common, alternating = coeffs._pole_sums(tz2)
    value = ((1j / tz - 2j * tz * common)
             + (-1j * e_itz * (1.0 / tz - 2.0 * tz * alternating)))
    return EvaluationOutcome(value, Path.FULL_DECOMPOSITION)
