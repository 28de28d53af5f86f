"""Large |z|: the continued-fraction route, the real axis past the overflow
of (tau_m x)^2, the reflection where e^{-z^2} underflows, and the named
errors of the paper's formulas out there. References are mpmath
(``conftest.mp_w``) and, where it is finite, ``scipy.special.wofz``."""

import cmath
import math
import random

import pytest

from cef import (DomainError, Path, SeriesParams, build_coefficients, erfc_complex,
                 erfc_cr_series, imag_l, refining_part, voigt_k, w_adaptive, w_cr,
                 w_full_plane, w_refined)
from cef.series import _FAR_ABS
from conftest import mp_w, rel_error

EPS = 2.0 ** -52


def assert_close(got: complex, z: complex, bound: float) -> None:
    """Within ``bound`` of mpmath, and of wofz wherever wofz is finite."""
    assert rel_error(got, mp_w(z)) <= bound, (z, got)
    special = pytest.importorskip("scipy.special")
    want = complex(special.wofz(z))
    if cmath.isfinite(want):
        assert rel_error(got, want) <= bound, (z, got, want)


def must_overflow(z: complex) -> bool:
    """y < 0 and y^2 - x^2 > 700: 2 e^{-z^2} leaves the doubles."""
    x, y = abs(z.real), abs(z.imag)
    return z.imag < 0.0 and (y - x) * (y + x) > 700.0


@pytest.mark.parametrize("x", [0.0, 0.5, 3.0, 27.0, 28.0, 100.0, 1e6, 1e15, 1e100,
                               -3.0, -28.0, -1e6])
def test_both_sides_of_y_28(x, coeffs):
    # y = 28 takes the continued fraction, the next float below it the
    # pole sum; both are within 1e-14 of w there
    for y, path in ((28.0, Path.CONTINUED_FRACTION),
                    (math.nextafter(28.0, 0.0), Path.COMMON_ONLY)):
        z = complex(x, y)
        outcome = w_adaptive(z, coeffs)
        assert outcome.path is path, z
        assert_close(outcome.value, z, 1e-14)


def test_continued_fraction_region_against_wofz(coeffs):
    # 4000 seeded points with y log-uniform over [28, 1e300] and x of
    # either sign log-uniform over [1e-3, 1e300], 5% with y at exactly 28
    np = pytest.importorskip("numpy")
    wofz = pytest.importorskip("scipy.special").wofz
    rng = random.Random(28)
    points = []
    for i in range(4000):
        y = 28.0 if i % 20 == 0 else 28.0 * 10.0 ** rng.uniform(0.0, 298.0)
        points.append(complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 300.0), y))
    want = wofz(np.array(points))
    for z, ref in zip(points, want.tolist()):
        outcome = w_adaptive(z, coeffs)
        assert outcome.path is Path.CONTINUED_FRACTION, z
        if cmath.isfinite(ref) and ref:
            assert rel_error(outcome.value, ref) <= 1e-14, z


@pytest.mark.parametrize("radius", [30.0, 1e3, 1e155, 1e300])
def test_four_quadrants(radius, coeffs):
    for degrees in (20, 45, 70, 90, 110, 160, 180, -20, -70, -90, -110, -160):
        angle = math.radians(degrees)
        z = complex(radius * math.cos(angle), radius * math.sin(angle))
        if must_overflow(z):
            with pytest.raises(OverflowError):
                w_full_plane(z, coeffs)
            continue
        outcome = w_full_plane(z, coeffs)
        if z.imag >= 0.0 and z.real >= 0.0:
            assert outcome.path is Path.CONTINUED_FRACTION, z
        # where 2 e^{-z^2} is live, the rounding of -z^2 (~eps |z|^2) shows
        live = z.imag < 0.0 and radius * radius * EPS > 1e-14 and abs(z.real) < abs(z.imag)
        assert_close(outcome.value, z, 4.0 * radius * radius * EPS if live else 1e-14)


@pytest.mark.parametrize("z", [1.5e308 + 1.5e308j, -1.5e308 + 1.5e308j,
                               1.7976931348623157e308 + 1.7976931348623157e308j])
def test_largest_doubles(z, coeffs):
    # |z| is past the largest double, so abs(z) raises OverflowError: the
    # |z| >= _FAR_ABS test must not take it there. w is subnormal, ~2e-309, and
    # the continued fraction must not flush it to 0
    want = mp_w(z)
    outcome = w_adaptive(z, coeffs)
    assert outcome.path is Path.CONTINUED_FRACTION
    assert rel_error(outcome.value, want) <= 1e-14, outcome
    plane = w_full_plane(z, coeffs)
    assert plane.path is (Path.CONTINUED_FRACTION if z.real > 0.0 else Path.SYMMETRY_EXTENDED)
    assert plane.value == outcome.value
    assert voigt_k(z.real, z.imag, coeffs) == outcome.value.real
    assert imag_l(z.real, z.imag, coeffs) == outcome.value.imag


def just_outside_and_inside(angle: float) -> tuple[complex, complex]:
    """The first point with |z| >= _FAR_ABS on the ray at ``angle`` (from
    below in x), and the point a few ulps in from it with |z| < _FAR_ABS."""
    x, y = _FAR_ABS * math.cos(angle), _FAR_ABS * math.sin(angle)
    while abs(complex(x, y)) < _FAR_ABS:
        x = math.nextafter(x, math.inf)
    inner_x, inner_y = x, y
    while abs(complex(inner_x, inner_y)) >= _FAR_ABS:
        inner_x, inner_y = math.nextafter(inner_x, 0.0), math.nextafter(inner_y, 0.0)
    return complex(x, y), complex(inner_x, inner_y)


def test_both_sides_of_the_far_radius(coeffs):
    # 400 angles over the closed upper right quadrant, both axes included:
    # the continued fraction just outside |z| = _FAR_ABS, the series routes
    # just inside, agreeing within 1e-14; voigt_k and imag_l take the same
    # route as w_full_plane on both sides, to the bit
    for k in range(400):
        outside, inside = just_outside_and_inside(k * (math.pi / 2.0) / 399)
        far, near = w_full_plane(outside, coeffs), w_full_plane(inside, coeffs)
        assert far.path is Path.CONTINUED_FRACTION, outside
        assert near.path is not Path.CONTINUED_FRACTION, inside
        assert rel_error(far.value, near.value) <= 1e-14, (outside, inside)
        if inside.imag > 0.0:
            assert voigt_k(outside.real, outside.imag, coeffs) == far.value.real
            assert imag_l(-outside.real, outside.imag, coeffs) == -far.value.imag
            assert voigt_k(-inside.real, inside.imag, coeffs) == near.value.real
            assert imag_l(inside.real, inside.imag, coeffs) == near.value.imag


def wing_points(count: int) -> list[tuple[float, float]]:
    """(x, y) with |x| log-uniform over [10, 1e3] of either sign and y
    log-uniform over [1e-300, 1)."""
    rng = random.Random(16)
    return [(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(1.0, 3.0),
             10.0 ** rng.uniform(-300.0, 0.0)) for _ in range(count)]


def test_voigt_wings_against_wofz(coeffs):
    # Re w at tiny y is e^{-x^2} plus ~y / (sqrt(pi) x^2): without its
    # e^{-x^2} term the continued fraction is 160% off at (10, 1e-15) and
    # ~1e287 off at y ~ 1e-300, where e^{-x^2} alone is Re w
    wofz = pytest.importorskip("scipy.special").wofz
    points = wing_points(4000) + [(x, y) for x in (10.0, -10.0, 27.0)
                                  for y in (1e-300, 1e-45, 1e-26, 1e-20, 1e-15)]
    for x, y in points:
        want = complex(wofz(complex(x, y)))
        assert abs(voigt_k(x, y, coeffs) - want.real) <= 1e-14 * abs(want.real), (x, y)
        assert abs(imag_l(x, y, coeffs) - want.imag) <= 1e-14 * abs(want.imag), (x, y)


@pytest.mark.parametrize("x", [_FAR_ABS, -8.5, 10.0, -12.5, 24.9, -30.0, 1000.0])
def test_voigt_wings_against_mpmath(x, coeffs):
    # 60 digits, and y >= 1e-30 only: there 60 and 100 digits agree on
    # Re w to the last bit of a double
    for y in (1e-30, 1e-24, 1e-20, 1e-15, 1e-6, 0.5):
        want = mp_w(complex(x, y), 60)
        assert abs(voigt_k(x, y, coeffs) - want.real) <= 1e-14 * abs(want.real), y
        assert abs(imag_l(x, y, coeffs) - want.imag) <= 1e-14 * abs(want.imag), y


def inner_band_points(count: int, seed: int = 7) -> list[complex]:
    """Seeded z with 7 <= |z| < 10 in the closed upper half-plane, x of
    either sign: 40% at a uniform radius and argument, 50% with |x|
    uniform over [7, 9.9] and y log-uniform over [1e-300, 1), 10% on the
    real axis (y = 0), and twelve points at |x| = 7-8 and y <= 9e-4, where
    the fraction adds e^{-x^2} (4.4e-10 of K at (7, 1e-10))."""
    rng = random.Random(seed)
    points = [complex(x, y) for x in (7.0, -7.5, 8.0) for y in (1e-10, 1e-5, 2e-4, 9e-4)]
    for i in range(count - len(points)):
        sign = rng.choice((-1.0, 1.0))
        if i % 10 < 4:
            radius, angle = rng.uniform(7.0, 10.0), rng.uniform(0.0, math.pi)
            points.append(complex(radius * math.cos(angle), radius * math.sin(angle)))
        elif i % 10 < 9:
            points.append(complex(sign * rng.uniform(7.0, 9.9), 10.0 ** rng.uniform(-300.0, 0.0)))
        else:
            points.append(complex(sign * rng.uniform(7.0, 10.0), 0.0))
    return points


def test_inner_band_against_mpmath(coeffs):
    # 7 <= |z| < 10 takes the continued fraction: w within 1e-15 of
    # 60-digit mpmath, K and L each within 1e-14 (e^{-x^2}, which is all of
    # K at tiny y, carries the rounding of x^2, up to 7.2e-15), and K > 0
    for z in inner_band_points(1000):
        assert _FAR_ABS <= abs(z) < 10.0, z
        want = mp_w(z, 60)
        outcome = w_full_plane(z, coeffs)
        assert outcome.path is (Path.CONTINUED_FRACTION if z.real >= 0.0
                                else Path.SYMMETRY_EXTENDED), z
        assert rel_error(outcome.value, want) <= 1e-15, (z, outcome.value)
        if z.imag == 0.0:
            assert abs(outcome.value.real - want.real) <= 1e-14 * want.real, z
            continue
        k, l = voigt_k(z.real, z.imag, coeffs), imag_l(z.real, z.imag, coeffs)
        assert k > 0.0, z
        assert abs(k - want.real) <= 1e-14 * want.real, (z, k)
        assert abs(l - want.imag) <= 1e-14 * abs(want.imag), (z, l)


@pytest.mark.parametrize("fn", [voigt_k, imag_l])
def test_domain_rule_holds_past_radius_10(fn, coeffs):
    # |x| >= _FAR_ABS takes the continued fraction without w_adaptive, whose
    # domain check these arguments must still reach
    for x in (_FAR_ABS, -8.0, 12.0, -12.0, 1e200):
        for y in (0.0, -0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                fn(x, y, coeffs)


# the last x with a finite (tau_m x)^2 at tau_m = 12, and the next float
LAST_FINITE_SQUARE_X = 1.1173173274952162e153
FIRST_OVERFLOWING_SQUARE_X = 1.1173173274952164e153


@pytest.mark.parametrize("x", [1e4, 1e8, 1e15, LAST_FINITE_SQUARE_X,
                               FIRST_OVERFLOWING_SQUARE_X, 1.5e153, 2e153, 1e160, 1e300])
def test_real_axis(x, coeffs):
    # the continued fraction from x = _FAR_ABS on, on both sides of the overflow
    # of (tau_m x)^2, so the refined series' loss next to it (its terms
    # a_n num_n / (n^2 pi^2 - u) go subnormal as u -> DBL_MAX) never shows
    plus = w_full_plane(complex(x, 0.0), coeffs)
    minus = w_full_plane(complex(-x, 0.0), coeffs)
    assert plus.path is Path.CONTINUED_FRACTION
    assert minus.path is Path.SYMMETRY_EXTENDED
    assert minus.value == plus.value.conjugate()
    assert_close(plus.value, complex(x, 0.0), 1e-15)
    assert_close(minus.value, complex(-x, 0.0), 1e-15)


def test_cases_that_were_wrong(coeffs):
    # once (tau_m z)^2 overflowed, the pole sum returned i/(tau_m z) alone
    # (6.8x too small) or NaN
    outcome = w_full_plane(1e160j, coeffs)
    assert outcome.path is Path.CONTINUED_FRACTION
    assert_close(outcome.value, 1e160j, 1e-15)

    want = mp_w(complex(1e160, 1.0))
    assert rel_error(imag_l(1e160, 1.0, coeffs), want.imag) <= 1e-15
    assert imag_l(-1e160, 1.0, coeffs) == -imag_l(1e160, 1.0, coeffs)
    # K(1e160, 1) ~ 5.6e-321 is subnormal: a few units of the least one
    assert abs(voigt_k(1e160, 1.0, coeffs) - want.real) <= 4 * math.ulp(0.0)
    assert voigt_k(1e160, 1.0, coeffs) > 0.0

    z = 1e155 + 1e155j
    outcome = w_adaptive(z, coeffs)
    assert outcome.path is Path.CONTINUED_FRACTION
    assert_close(outcome.value, z, 1e-15)


def bits(value: complex) -> tuple[str, str]:
    """Both parts of a complex, signs of zero included."""
    return value.real.hex(), value.imag.hex()


def test_reflection_term_left_out_where_it_underflows(coeffs):
    # y^2 - x^2 < -746: 2 e^{-z^2} is 0.0, and z * z would be inf - inf;
    # at 1e200 - 1e-200j the real part of -w(-z) is -0.0
    for z in (complex(1e200, -1e100), complex(-1e200, -1e199), complex(3e154, -2e154),
              complex(-40.0, -10.0), complex(1e200, -1e-200)):
        outcome = w_full_plane(z, coeffs)
        assert outcome.path is Path.SYMMETRY_EXTENDED
        assert bits(outcome.value) == bits(-w_full_plane(-z, coeffs).value), z
        assert_close(outcome.value, z, 1e-14)


def test_phase_overflow_on_the_diagonal_is_reported(coeffs):
    # y = -x exactly past ~9.5e153: |2 e^{-z^2}| = 2 but its phase 2xy is
    # not a double
    for z in (complex(1e154, -1e154), complex(1e200, -1e200), complex(-1e300, -1e300)):
        with pytest.raises(OverflowError, match="phase"):
            w_full_plane(z, coeffs)
    assert cmath.isfinite(w_full_plane(complex(9e153, -9e153), coeffs).value)


@pytest.mark.parametrize("fn", [w_cr, w_refined, refining_part, erfc_cr_series])
def test_paper_formulas_raise_where_the_square_overflows(fn, coeffs):
    assert cmath.isfinite(fn(complex(1e153, 1.0), coeffs))
    for z in (complex(2e153, 1.0), complex(1.0, 1e160), complex(-1e300, 1e300)):
        with pytest.raises(OverflowError, match="overflowed") as info:
            fn(z, coeffs)
        assert repr(z) in str(info.value)


@pytest.mark.parametrize("fn", [w_cr, refining_part, erfc_cr_series])
def test_pole_sums_raise_where_one_over_tau_z_overflows(fn, coeffs):
    assert cmath.isfinite(fn(3e-309j, coeffs))
    for z in (1e-320j, complex(1e-310, 1e-310)):
        with pytest.raises(OverflowError, match="overflowed"):
            fn(z, coeffs)
    assert w_refined(1e-320j, coeffs) == 1.0


@pytest.mark.parametrize("fn", [w_cr, w_refined, refining_part])
def test_paper_formulas_keep_their_domain_errors(fn, coeffs):
    for z in (complex(1e300, -1.0), complex(1e300, 0.0), complex(math.inf, 1.0)):
        with pytest.raises(DomainError):
            fn(z, coeffs)


def test_erfc_complex_at_large_arguments(coeffs):
    # erfc(z) = e^{-z^2} w(iz): 0 where e^{-z^2} underflows, OverflowError
    # where it overflows or where z * z has no phase (|Im z| = Re z)
    for z in (complex(1e200, 1e199), complex(1e300, -1e100), 1e300 + 0j):
        assert erfc_complex(z, coeffs) == 0
    assert erfc_complex(complex(-1e200, 1e199), coeffs) == 2
    for z in (complex(1e200, 1e201), complex(1e200, -1e200)):
        with pytest.raises(OverflowError):
            erfc_complex(z, coeffs)


def test_erfc_is_finite_where_the_fold_overflows(coeffs):
    # 700 < y^2 - x^2 < 709.78: e^{-z^2} w(iz) is a double, so the fold's
    # overflow rule at 700 belongs to 2 e^{-z^2} - w, not to e^{-z^2}
    mpmath = pytest.importorskip("mpmath")
    for z in (complex(1.0, 26.570660511172846), complex(0.5, 26.6), complex(3.0, 26.7)):
        with mpmath.workdps(40):
            want = complex(mpmath.erfc(mpmath.mpc(z.real, z.imag)))
        assert rel_error(erfc_complex(z, coeffs), want) <= 1e-13, z
        assert must_overflow(z.conjugate())
        with pytest.raises(OverflowError):
            w_full_plane(z.conjugate(), coeffs)


def sweep_points():
    """|z| = 10^k for k = -320..308 in steps of 1/4, twelve directions
    each, the four half-axes included."""
    for step in range(-320 * 4, 308 * 4 + 1):
        radius = 10.0 ** (step / 4)
        for degrees in range(0, 360, 30):
            angle = math.radians(degrees)
            yield complex(radius * math.cos(angle), radius * math.sin(angle))
        yield from (complex(radius, 0.0), complex(0.0, radius),
                    complex(-radius, 0.0), complex(0.0, -radius))


def test_no_nan_for_any_finite_argument(coeffs):
    # every kernel and derived function either returns a finite value or
    # raises a named error: DomainError (a ValueError) or OverflowError
    pole_sum_only = build_coefficients(SeriesParams(y_switch=0.0))
    kernels = {
        "w_cr": w_cr, "w_refined": w_refined, "refining_part": refining_part,
        "w_adaptive": lambda z, c: w_adaptive(z, c).value,
        "w_adaptive at y_switch = 0": lambda z, c: w_adaptive(z, pole_sum_only).value,
        "w_full_plane": lambda z, c: w_full_plane(z, c).value,
        "voigt_k": lambda z, c: voigt_k(z.real, z.imag, c),
        "imag_l": lambda z, c: imag_l(z.real, z.imag, c),
        "erfc_complex": erfc_complex, "erfc_cr_series": erfc_cr_series,
    }
    evaluated = dict.fromkeys(kernels, 0)
    for z in sweep_points():
        for name, fn in kernels.items():
            try:
                value = fn(z, coeffs)
            except (DomainError, OverflowError):
                continue
            assert cmath.isfinite(value), (name, z, value)
            evaluated[name] += 1
    assert all(evaluated.values()), evaluated
