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
        if z.imag >= 28.0 and z.real >= 0.0:
            assert outcome.path is Path.CONTINUED_FRACTION, z
        # where 2 e^{-z^2} is live, the rounding of -z^2 (~eps |z|^2) shows
        live = z.imag < 0.0 and radius * radius * EPS > 1e-14 and abs(z.real) < abs(z.imag)
        assert_close(outcome.value, z, 4.0 * radius * radius * EPS if live else 1e-14)


# the last x with a finite (tau_m x)^2 at tau_m = 12, and the next float
LAST_FINITE_SQUARE_X = 1.1173173274952162e153
FIRST_OVERFLOWING_SQUARE_X = 1.1173173274952164e153


@pytest.mark.parametrize("x", [1e4, 1e8, 1e15, LAST_FINITE_SQUARE_X,
                               FIRST_OVERFLOWING_SQUARE_X, 1.5e153, 2e153, 1e160, 1e300])
def test_real_axis(x, coeffs):
    # the refined series at y = 0 while (tau_m x)^2 is finite, the
    # continued fraction past that (1.5e153 is already past it)
    tau = coeffs.params.tau_m
    path = Path.REFINED if math.isfinite(tau * x * (tau * x)) else Path.CONTINUED_FRACTION
    plus = w_full_plane(complex(x, 0.0), coeffs)
    minus = w_full_plane(complex(-x, 0.0), coeffs)
    assert plus.path is path
    assert minus.path is Path.SYMMETRY_EXTENDED
    assert minus.value == plus.value.conjugate()
    # next to the overflow, u = (tau_m x)^2 ~ DBL_MAX makes the refined
    # series' terms a_n num_n / (n^2 pi^2 - u) subnormal: 1.6e-15 there
    bound = 2e-15 if x == LAST_FINITE_SQUARE_X else 1e-15
    assert_close(plus.value, complex(x, 0.0), bound)
    assert_close(minus.value, complex(-x, 0.0), bound)


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


def test_reflection_term_left_out_where_it_underflows(coeffs):
    # y^2 - x^2 < -746: 2 e^{-z^2} is 0.0, and z * z would be inf - inf
    for z in (complex(1e200, -1e100), complex(-1e200, -1e199), complex(3e154, -2e154),
              complex(-40.0, -10.0)):
        outcome = w_full_plane(z, coeffs)
        assert outcome.path is Path.SYMMETRY_EXTENDED
        assert outcome.value == -w_full_plane(-z, coeffs).value, z
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
