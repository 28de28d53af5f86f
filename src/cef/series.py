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
reports which route produced the value. Where the compiled sums stop,
``_edge`` decides for ``w_adaptive`` and the closed upper right quadrant
of ``w_full_plane``: the Laplace continued fraction (Gautschi, SIAM J.
Numer. Anal. 7, 1970; Poppe & Wijers, ACM TOMS 16, 1990), see
``_continued_fraction``, wherever |z| >= 10 or (tau_m z)^2 overflows
(|z| >~ 1.1e153 at tau_m = 12), else ``_refined``, which for
``w_adaptive`` is y <= 1e-146, where 1/(tau_m z) could overflow.
``w_full_plane`` and ``voigt_k`` make the |z| >= 10 test themselves
too (see ``_FAR_ABS``).
The paper's formulas themselves never switch. Each of their argument
rules raises from one function, the domain rule first: DomainError from
``errors._require_upper_half_plane``, OverflowError where (tau_m z)^2 is
not finite from ``_scaled`` and where a pole-sum value is not from
``_finite``. All functions are pure and safe to call concurrently against
a shared table. Summation runs in ascending n with plain double
accumulation; the terms decay like e^{-n^2 h^2}, so compensated summation
buys nothing at the tolerances targeted here.

The pole sum, the refining sum and the finite-interval form's sum are the
table's compiled straight-line functions ``_pole_sum``, ``_pole_sums`` and
``_refined_sum`` (see CoefficientTable), so no route runs a Python loop.

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
from collections import namedtuple

from .coefficients import _SQRT_PI, CoefficientTable
from .errors import DomainError, _require_upper_half_plane

__all__ = ["Path", "EvaluationOutcome", "w_refined", "w_cr", "refining_part",
           "w_adaptive"]

# i/sqrt(pi) halved: _continued_fraction divides it by t / 2, see there
_HALF_I_OVER_SQRT_PI = 0.5j / _SQRT_PI

# w_adaptive's compiled sums stop at this y; from it up, |z| >= 10 and the
# continued fraction answers. The reference table and the boxes the
# acceptance tests pin (y <= 15) stay on the series routes.
_FAR_Y = 28.0

# The continued fraction answers wherever |z| >= _FAR_ABS: at nu = 10 it is
# within 3.5e-16 of scipy.special.wofz on 400 angles of the quadrant at
# |z| = 10 and 4.7e-16 at 12, 15, 28 and 100; at |z| = 9 it is 1.2e-14 off,
# and no depth reaches 1e-14 on every angle at |z| = 6-8.
# For a finite z with y >= 0 the test is `y >= _FAR_ABS or abs(z) >=
# _FAR_ABS`: abs(z) raises OverflowError past |z| ~ 1.8e308 (at 1.5e308 +
# 1.5e308j), and it runs only for y < _FAR_ABS, where it cannot. _edge,
# plane.w_full_plane and functions.voigt_k write it inline: as a shared
# function it cost ~120 ns a call (CPython 3.11, 2-vCPU Xeon VM), full_plane
# 5.9% of its points/s and voigt_profiles-shaped batches 2.4% of their time.
# tests/test_far_field.py pins the three to one boundary and the largest doubles.
_FAR_ABS = 10.0

# ... and adds e^{-x^2}, the term of Re w it leaves out, below this y. Near
# the real axis at |z| >= 10, Re w ~ y / (sqrt(pi) x^2) and e^{-x^2} falls
# faster than that as x grows, so x = 10 bounds the term's share:
# e^{-100} / (5.7e-3 y) is one ulp (2.2e-16) at y = 2.9e-26 and below
# 6.5e-22 of Re w for y >= 1e-20, so it is not formed there
_STOKES_Y = 1e-20

# ... and _refined up to this y: above it tau_m y > 1/DBL_MAX (~5.6e-309)
# for every tau_m SeriesParams accepts (down to ~1.6e-162, where tau_m^2
# rounds to 0.0), so no compiled route forms an overflowing 1/(tau_m z)
_TINY_Y = 1e-146

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
    CONTINUED_FRACTION = "continued_fraction"

    def __str__(self) -> str:  # CLI-friendly
        return self.value


# collections.namedtuple, not typing.NamedTuple (so no __annotations__):
# importing typing is a measurable share of importing this package
EvaluationOutcome = namedtuple("EvaluationOutcome", ["value", "path"])
EvaluationOutcome.__doc__ = "Value plus provenance of the route that computed it."


# Every kernel builds its outcome with these. CPython 3.11: EvaluationOutcome(...)
# ~420 ns, _new_outcome(EvaluationOutcome, (...)) ~240 ns; Path.X ~150 ns, an
# alias ~15 ns (less on 3.12 and later). plane and analysis import the aliases.
_new_outcome = tuple.__new__
_REFINED = Path.REFINED
_COMMON_ONLY = Path.COMMON_ONLY
_FULL_DECOMPOSITION = Path.FULL_DECOMPOSITION
_SYMMETRY_EXTENDED = Path.SYMMETRY_EXTENDED
_EXACT_SPECIAL_CASE = Path.EXACT_SPECIAL_CASE
_CONTINUED_FRACTION = Path.CONTINUED_FRACTION


def _scaled(z: complex, coeffs: CoefficientTable) -> tuple[complex, complex]:
    """tau_m z and (tau_m z)^2 for a paper formula: DomainError for a
    non-finite z, else OverflowError naming z where the square is not."""
    tz = coeffs.params.tau_m * z
    tz2 = tz * tz
    if not cmath.isfinite(tz2):
        if not cmath.isfinite(z):
            raise DomainError(f"the paper formulas require a finite argument, got z = {z!r}")
        raise OverflowError(f"(tau_m z)^2 overflowed at z = {z!r}; "
                            "w_adaptive and w_full_plane evaluate w(z) there")
    return tz, tz2


def _finite(value: complex, z: complex) -> complex:
    """A pole-sum value, or OverflowError where it left the doubles:
    1/(tau_m z) overflows for |tau_m z| below ~5.6e-309."""
    if not cmath.isfinite(value):
        raise OverflowError(f"1/(tau_m z) overflowed at z = {z!r}")
    return value


def _continued_fraction(z: complex) -> complex:
    """The Laplace continued fraction, unguarded, for |z| >= _FAR_ABS with
    Im z >= 0:

        w(z) = (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ...)))),

    cut at nu = 10 levels and evaluated bottom-up. It forms no square, so it
    holds up to the largest doubles (where w itself is subnormal, with the
    precision that leaves), and it is within ~1e-15 of w(z) at |z| >= 10.
    It omits e^{-z^2}, which only Re w at tiny y sees: below _STOKES_Y it
    adds e^{-x^2} (exactly Re w on the real axis).
    """
    t = z - 5.0 / z
    t = z - 4.5 / t
    t = z - 4.0 / t
    t = z - 3.5 / t
    t = z - 3.0 / t
    t = z - 2.5 / t
    t = z - 2.0 / t
    t = z - 1.5 / t
    t = z - 1.0 / t
    t = z - 0.5 / t
    # halved on both sides: CPython's complex division forms a divisor
    # near |t.real| + |t.imag|, which overflows to inf (and the value to 0)
    # past t ~ 1e308 (1+i) otherwise; the halving is exact, so elsewhere
    # the value is i/sqrt(pi) / t bit for bit
    value = _HALF_I_OVER_SQRT_PI / (0.5 * t)
    if z.imag < _STOKES_Y:
        x = z.real
        return complex(value.real + math.exp(-x * x), value.imag)
    return value


def _refined(z: complex, coeffs: CoefficientTable) -> complex:
    """The finite-interval series, unguarded, for Im z >= 0 and a finite
    (tau_m z)^2.

    With n* the nearest integer to Re tau_m z / pi and d = tau_m z - n* pi,
    the term that cancels is written as -a_|n*| E(d) / (n* pi + tau_m z)
    (the lead term -i E(d) for n* = 0), E(d) = (e^{i d} - 1) / d
    = i (sin h / h) e^{i h} with h = d/2; sin(h)/h, not 2 sin(h)/d, so that
    a subnormal d, which halves inexactly, adds no rounding. Only for
    |d| < 1 and |n*| <= N: beyond, no term cancels and sin h overflows
    at large y. The sum over the terms up to the last a_n > 0 is the
    table's compiled ``_refined_sum``, which takes the closed-form term as
    ``star`` in place of term |n*| (past the last a_n > 0, both are zeros).

    On the imaginary axis w is real and its zero Im takes the sign of x,
    the limit from that side. The arithmetic cannot carry that sign: there
    -i E(d) has Im -0.0 whatever the sign of x (Re E(d) is +0.0 and
    Re(-1j) is -0.0), and products with i add +0.0 to -0.0, which rounds
    to +0.0. So x = +-0 sets it explicitly.
    """
    tau = coeffs.params.tau_m
    tz = tau * z
    e_itz = cmath.exp(1j * tz)
    # nearest n* with |n*| <= N; beyond that, n* = 0 leaves |d| > 1
    n_near = (round(tz.real / math.pi)
              if abs(tz.real) < (coeffs.params.n_terms + 0.5) * math.pi else 0)
    d = tz - n_near * math.pi
    near = abs(d) < 1.0
    skip = 0
    star = 0j
    if near:
        h = 0.5 * d
        e_d = 1j * (cmath.sin(h) / h if h else 1.0) * cmath.exp(1j * h)
        if n_near:
            skip = abs(n_near)
            star = coeffs.a[skip] * e_d / (n_near * math.pi + tz)
    lead = -1j * e_d if near and n_near == 0 else 1j * (1.0 - e_itz) / tz
    # n = 1, 2, ... takes the numerator (-1)^n e^{i tau_m z} - 1
    acc = coeffs._refined_sum(tz * tz, -e_itz - 1.0, e_itz - 1.0, skip, star)
    value = lead + 1j * (tau * tau * z / _SQRT_PI) * acc
    return complex(value.real, z.real) if z.real == 0.0 else value


def w_refined(z: complex, coeffs: CoefficientTable) -> complex:
    """Finite-interval series for w(z), Im z > 0.

    Reproduces the reference tables to full double precision over
    x in [0, 15] and stays accurate as y -> 0, removable points included.
    Raises OverflowError once (tau_m z)^2 is not finite (|z| >~ 1.1e153 at
    tau_m = 12).
    """
    _require_upper_half_plane(z, "w_refined")
    _scaled(z, coeffs)
    return _refined(z, coeffs)


def w_cr(z: complex, coeffs: CoefficientTable) -> complex:
    """Chiarella-Reichel pole sum for w(z), Im z > 0.

    Noticeably faster than ``w_refined`` (no complex exponential, constant
    numerators) but only trustworthy for y around 1 and above; at small y
    it is documented to fail outright. Raises OverflowError once
    (tau_m z)^2 is not finite, and once 1/(tau_m z) is (subnormal |z|).
    """
    _require_upper_half_plane(z, "w_cr")
    tz, tz2 = _scaled(z, coeffs)
    return _finite(1j / tz - 2j * tz * coeffs._pole_sum(tz2), z)


def refining_part(z: complex, coeffs: CoefficientTable) -> complex:
    """Correction term -i e^{i tau_m z} [1/(tau_m z)
    - 2 tau_m z sum_n (-1)^n e^{-n^2 pi^2/tau_m^2} / (n^2 pi^2 - tau_m^2 z^2)].

    Adding it to ``w_cr`` recovers ``w_refined`` (the identity is an exact
    algebraic regrouping). |refining_part(z)| <= C e^{-tau_m y} with small C.
    The alternating sum comes from the same compiled pass ``w_adaptive``
    uses, so ``w_cr(z) + refining_part(z)`` equals its full route bit for
    bit. Raises OverflowError once (tau_m z)^2 is not finite, and once
    1/(tau_m z) is (subnormal |z|).
    """
    _require_upper_half_plane(z, "refining_part")
    tz, tz2 = _scaled(z, coeffs)
    _, alternating = coeffs._pole_sums(tz2)
    return _finite(-1j * cmath.exp(1j * tz) * (1.0 / tz - 2.0 * tz * alternating), z)


def _edge(z: complex, coeffs: CoefficientTable) -> EvaluationOutcome:
    """w(z) for a finite z with Im z >= 0 that the compiled sums do not
    take: the continued fraction where |z| >= _FAR_ABS or (tau_m z)^2
    overflows (only a tau_m far above the paper's makes it overflow at
    |z| < 10), else ``_refined``. ``w_adaptive`` sends the points that miss
    its guard here, ``w_full_plane`` its positive real axis and every
    point of its upper right quadrant at |z| >= _FAR_ABS."""
    tz = coeffs.params.tau_m * z
    if z.imag < _FAR_ABS and abs(z) < _FAR_ABS and cmath.isfinite(tz * tz):
        return _new_outcome(EvaluationOutcome, (_refined(z, coeffs), _REFINED))
    return _new_outcome(EvaluationOutcome, (_continued_fraction(z), _CONTINUED_FRACTION))


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
    The compiled routes take only _TINY_Y < y < _FAR_Y with a finite
    (tau_m z)^2. Every other point misses that one guard, is checked for
    DomainError (y <= 0 or non-finite z) and goes to ``_edge``: the
    continued fraction where |z| >= _FAR_ABS (every y >= _FAR_Y among them)
    or (tau_m z)^2 overflows, as ``Path.CONTINUED_FRACTION``, else
    ``_refined``, as ``Path.REFINED``.
    """
    params = coeffs.params
    tz = params.tau_m * z
    tz2 = tz * tz
    y = z.imag
    if not (_TINY_Y < y < _FAR_Y and cmath.isfinite(tz2)):
        _require_upper_half_plane(z, "w_adaptive")
        return _edge(z, coeffs)
    if y >= params.y_switch:
        return _new_outcome(EvaluationOutcome,
                            (1j / tz - 2j * tz * coeffs._pole_sum(tz2), _COMMON_ONLY))
    e_itz = cmath.exp(1j * tz)
    if tz.imag < _NEAR_POLE and abs(e_itz.imag) < _NEAR_POLE:
        return _new_outcome(EvaluationOutcome, (_refined(z, coeffs), _REFINED))
    common, alternating = coeffs._pole_sums(tz2)
    value = ((1j / tz - 2j * tz * common)
             + (-1j * e_itz * (1.0 / tz - 2.0 * tz * alternating)))
    return _new_outcome(EvaluationOutcome, (value, _FULL_DECOMPOSITION))
