"""Series kernels: reference-table fidelity, decomposition identity,
adaptive dispatch."""

import cmath
import math
import pickle
import random
import timeit
from concurrent.futures import ThreadPoolExecutor

import pytest

from cef import (CoefficientTable, DomainError, Path, SeriesParams, build_coefficients,
                 erfc_cr_series, refining_part, w_adaptive, w_cr, w_refined)
from cef.fixtures import reference_rows
from cef.plane import _exp_neg_square
from cef.series import _closing, _refined
from conftest import component_rel_errors, loop_parity_sums, loop_terms, mp_w, rel_error

ROWS = {(row.x, row.y): row for row in reference_rows()}


def random_upper_half_points(seed, count, y_max=15.0):
    rng = random.Random(seed)
    return [complex(15.0 * rng.random(), y_max * (1.0 - rng.random()))
            for _ in range(count)]


@pytest.mark.parametrize("fn", [w_refined, w_cr, refining_part])
# the last three also overflow (tau_m z)^2: the domain rule wins
@pytest.mark.parametrize("z", [1.0 + 0j, 1.0 - 1.0j, 2.5 - 0.001j,
                               1e200 - 1j, -1e300 + 0j, 1e200 + 0j])
def test_kernels_reject_nonpositive_y(fn, z, coeffs):
    with pytest.raises(DomainError):
        fn(z, coeffs)


@pytest.mark.parametrize("fn", [w_refined, w_cr, refining_part, w_adaptive])
@pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(1.0, math.nan),
                               complex(math.inf, 1.0), complex(-math.inf, 1.0),
                               complex(1.0, math.inf), complex(1.0, -math.inf)])
def test_kernels_reject_non_finite_z(fn, z, coeffs):
    with pytest.raises(DomainError, match="finite"):
        fn(z, coeffs)


def test_refined_matches_reference_rows(coeffs):
    for (x, y), row in ROWS.items():
        got = w_refined(complex(x, y), coeffs)
        err_re, err_im = component_rel_errors(got, row.refined)
        assert err_re <= 1e-12 and err_im <= 1e-12, (x, y)


def test_refined_matches_algorithm_680_column(coeffs):
    for (x, y), row in ROWS.items():
        err_re, err_im = component_rel_errors(w_refined(complex(x, y), coeffs),
                                              row.reference)
        assert err_re <= 1e-14 and err_im <= 1e-14, (x, y)


@pytest.mark.parametrize("seed", [99, 7, 2012])
def test_refined_against_40_digits(seed, coeffs):
    # |x| log-uniform in [1e-3, 30], both signs, y log-uniform in [1e-300, 10]
    pytest.importorskip("mpmath")
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(600):
        x = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, math.log10(30.0))
        z = complex(x, 10.0 ** rng.uniform(-300.0, 1.0))
        worst = max(worst, rel_error(w_refined(z, coeffs), mp_w(z)))
    assert worst <= 9e-16, worst


def test_refined_pure_imaginary_argument_is_real(coeffs):
    for y in (0.5, 1.0, 5.0):
        assert abs(w_refined(complex(0.0, y), coeffs).imag) <= 1e-16


def test_refined_keeps_its_own_im_near_the_imaginary_axis_from_y_0_1(coeffs):
    # there the series' Im is within ~eps/y, while the first-order form
    # x (2/sqrt(pi) - 2y e^{y^2} erfc(y)) cancels, to all digits at y ~ 1e8;
    # that form, taken at 60 digits, is the reference (its x^3 term is
    # below 1e-16 of Im w at these x)
    mpmath = pytest.importorskip("mpmath")
    for y in (0.1, 1.0, 30.0, 1e4, 1e8):
        with mpmath.workdps(60):
            y_mp = mpmath.mpf(y)
            erfcx = mpmath.exp(y_mp ** 2) * mpmath.erfc(y_mp)
            slope = 2 / mpmath.sqrt(mpmath.pi) - 2 * y_mp * erfcx
        for x in (1e-8, -1e-200):
            got = w_refined(complex(x, y), coeffs).imag
            assert rel_error(got, float(x * slope)) <= 1e-14, (x, y)


def test_cr_matches_reference_rows_including_failed_ones(coeffs):
    # the small-y rows are documented to be wrong relative to the true
    # function; reproducing those exact wrong numbers confirms the
    # formula is implemented faithfully
    for (x, y), row in ROWS.items():
        got = w_cr(complex(x, y), coeffs)
        err_re, err_im = component_rel_errors(got, row.cr)
        assert err_re <= 1e-12 and err_im <= 1e-12, (x, y)
    assert ROWS[(0.01, 0.01)].cr_status == "failed"
    assert ROWS[(1.0, 1.0)].cr_status == "reduced"


def test_decomposition_identity_on_random_points(coeffs):
    for z in random_upper_half_points(seed=7, count=10_000):
        recombined = w_cr(z, coeffs) + refining_part(z, coeffs)
        assert rel_error(recombined, w_refined(z, coeffs)) <= 1e-13


def test_refining_part_size_at_reduced_accuracy_row(coeffs):
    z = 1.0 + 1.0j
    rp = refining_part(z, coeffs)
    # equals the gap between the two series forms
    gap = w_refined(z, coeffs) - w_cr(z, coeffs)
    assert abs(rp - gap) <= 1e-13 * abs(w_refined(z, coeffs))
    # order of magnitude: ~7.55e-11 (difference of the two table columns)
    assert 5e-11 < abs(rp) < 1.5e-10
    assert 5e-11 < rp.real < 1e-10


def test_refining_part_negligible_at_y_5(coeffs):
    # |e^{i tau_m z}| = e^{-tau_m y} = e^{-60} at y = 5
    for x in [0.0 + 1.5 * k for k in range(11)]:
        assert abs(refining_part(complex(x, 5.0), coeffs)) <= 1e-20


def test_refining_part_decay_envelope(coeffs):
    # |refining_part| <= C e^{-tau_m y} with C < 10 over the scanned grid
    tau = coeffs.params.tau_m
    worst = 0.0
    for i in range(16):
        x = 15.0 * i / 15
        for j in range(12):
            y = 0.1 + (5.0 - 0.1) * j / 11
            fitted = abs(refining_part(complex(x, y), coeffs)) * math.exp(tau * y)
            worst = max(worst, fitted)
    assert worst < 10.0


def test_cr_error_shrinks_with_y(coeffs):
    # the damping factor e^{-y tau} is what makes the pole sum usable at
    # large y; its error against the refined form must not grow with y.
    # Below ~1e-15 both forms differ only by rounding noise, so the
    # comparison clamps to that floor.
    floor = 1e-15
    errors = []
    for y in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        z = complex(1.0, y)
        errors.append(max(rel_error(w_cr(z, coeffs), w_refined(z, coeffs)), floor))
    for previous, current in zip(errors, errors[1:]):
        assert current <= previous * 1.1


def assert_full_route_is_the_decomposition(z, value, coeffs):
    """The full route is the refined series with no term skipped: w_refined
    bit for bit where that writes no term in closed form (y >= 0.1), and
    common + refining regrouped, within 1e-15 |w| of w_cr + refining_part
    (not bit for bit: the two group the sums differently, and w_cr takes
    its far tier, the continued fraction, from |z| = 7 on)."""
    if z.imag >= 0.1:
        assert value == w_refined(z, coeffs), z
    parts = w_cr(z, coeffs) + refining_part(z, coeffs)
    assert abs(value - parts) <= 1e-15 * abs(value), z


class TestAdaptiveDispatch:
    def test_high_y_equals_cr_bitwise(self, coeffs):
        for z in random_upper_half_points(seed=3, count=500):
            if z.imag < 1.0:
                z = complex(z.real, z.imag + 1.0)
            outcome = w_adaptive(z, coeffs)
            assert outcome.path is Path.COMMON_ONLY
            assert outcome.value == w_cr(z, coeffs)

    def test_low_y_equals_decomposition_bitwise(self, coeffs):
        rng = random.Random(11)
        for _ in range(500):
            z = complex(15.0 * rng.random(), 0.999 * (1.0 - rng.random()))
            outcome = w_adaptive(z, coeffs)
            assert outcome.path is Path.FULL_DECOMPOSITION
            assert_full_route_is_the_decomposition(z, outcome.value, coeffs)
            assert rel_error(outcome.value, w_refined(z, coeffs)) <= 1e-13

    @pytest.mark.parametrize("y", [1e-4, 1e-8, 1e-12, 1e-300, math.nextafter(1.0, 0.0)])
    def test_low_y_route_near_removable_points(self, y, coeffs):
        # tau_m x = n pi is where the denominators n^2 pi^2 - tau_m^2 z^2
        # nearly vanish and the compiled sums cancel; below tau_m y = 0.05
        # such points take the refined series with its closed-form term
        tau = coeffs.params.tau_m
        xs = [0.0] + [n * math.pi / tau + delta
                      for n in range(1, coeffs.params.n_terms + 1)
                      for delta in (0.0, 1e-12, -1e-12, 1e-6, -1e-6)]
        points = [complex(x, y) for x in xs]
        if y > 0.5:
            for z in points:
                outcome = w_adaptive(z, coeffs)
                assert outcome.path is Path.FULL_DECOMPOSITION
                assert_full_route_is_the_decomposition(z, outcome.value, coeffs)
            return
        wofz = pytest.importorskip("scipy.special").wofz
        for z in points:
            outcome = w_adaptive(z, coeffs)
            assert outcome.path is Path.REFINED, z
            assert rel_error(outcome.value, complex(wofz(z))) <= 2e-14, z

    def test_near_pole_dispatch_survives_overflowing_tau_x(self, coeffs):
        # tau_m x = +-inf would make e^{i tau_m z} NaN; an overflowing
        # (tau_m z)^2 sends such points to the continued fraction instead
        for x in (1e308, -1e308):
            z = complex(x, 1e-3)
            outcome = w_adaptive(z, coeffs)
            assert outcome.path is Path.CONTINUED_FRACTION
            assert rel_error(outcome.value, mp_w(z)) <= 1e-15, z

    def test_boundary_is_common_only(self, coeffs):
        outcome = w_adaptive(1.0 + 1.0j, coeffs)
        assert outcome.path is Path.COMMON_ONLY
        err_re, err_im = component_rel_errors(outcome.value, ROWS[(1.0, 1.0)].cr)
        assert err_re <= 1e-12 and err_im <= 1e-12

    def test_reference_rows_route_and_values(self, coeffs):
        high = w_adaptive(15.0 + 15.0j, coeffs)
        assert high.path is Path.COMMON_ONLY
        err_re, err_im = component_rel_errors(high.value, ROWS[(15.0, 15.0)].cr)
        assert err_re <= 1e-12 and err_im <= 1e-12

        low = w_adaptive(0.5 + 0.5j, coeffs)
        assert low.path is Path.FULL_DECOMPOSITION
        err_re, err_im = component_rel_errors(low.value, ROWS[(0.5, 0.5)].refined)
        assert err_re <= 1e-12 and err_im <= 1e-12

    def test_path_matches_threshold_rule(self, coeffs):
        for z in random_upper_half_points(seed=13, count=2_000):
            outcome = w_adaptive(z, coeffs)
            assert (outcome.path is Path.COMMON_ONLY) == (z.imag >= 1.0)
        # the compiled routes start just above y = 1e-146, where 1/(tau_m z)
        # is finite for every valid tau_m; at and below it _refined answers
        for y, path in ((1e-146, Path.REFINED),
                        (math.nextafter(1e-146, 1.0), Path.FULL_DECOMPOSITION)):
            outcome = w_adaptive(complex(1.0, y), coeffs)
            assert outcome.path is path, y
            assert rel_error(outcome.value, mp_w(complex(1.0, y))) <= 1e-15, y

    def test_custom_switch_threshold(self):
        table = build_coefficients(SeriesParams(y_switch=0.5))
        assert w_adaptive(1 + 0.49j, table).path is Path.FULL_DECOMPOSITION
        assert w_adaptive(1 + 0.5j, table).path is Path.COMMON_ONLY
        # at y_switch = 0 the pole sum's 1/(tau_m z) would overflow to inf
        # for subnormal |z|; those points take the refined series
        table = build_coefficients(SeriesParams(y_switch=0.0))
        for z in (1e-320j, 1e-310j, complex(1e-310, 1e-310)):
            outcome = w_adaptive(z, table)
            assert outcome.path is Path.REFINED, z
            assert cmath.isfinite(outcome.value), z
            assert rel_error(outcome.value, mp_w(z)) <= 1e-15, z


def test_routes_return_the_tables_parts(coeffs):
    # no route derives a sum itself: with a table whose compiled functions
    # return sentinels, w_cr returns the common part, refining_part closes
    # the parity sums at skip 0 by its formula, and the full route by _closing
    common, sums = 0.25 + 0.5j, (-8.0 + 4.0j, 1024.0 - 2048.0j)
    table = CoefficientTable(coeffs.params, coeffs.a, lambda tz, u: common,
                             lambda u, skip: sums if skip == 0 else None)
    high, low = 0.7 + 2.0j, 0.3 + 0.5j
    assert w_cr(high, table) == w_cr(low, table) == common
    for z in (high, low):   # e^{-z^2} w_cr(iz), and its conjugate fold below the axis
        assert erfc_cr_series(z, table) == _exp_neg_square(z, common), z
        tz = z * table.params.tau_m
        e_itz = cmath.exp(1j * tz)
        odd, even = sums
        assert refining_part(z, table) == -1j * e_itz * ((1+0j) / tz - tz * 2.0 * (even - odd))
    z = 3.0 - 1.5j
    assert erfc_cr_series(z, table) == _exp_neg_square(z.conjugate(), common).conjugate()
    assert w_adaptive(high, table) == (common, Path.COMMON_ONLY)
    tz = low * table.params.tau_m
    e_itz = cmath.exp(1j * tz)
    full = _closing(1j * ((1+0j) - e_itz) / tz, tz, e_itz, *sums)
    assert w_adaptive(low, table) == (full, Path.FULL_DECOMPOSITION)


@pytest.mark.parametrize("y", [1e-4, 1e-8, 1e-12, 1e-300])
def test_refined_near_removable_points(y, coeffs):
    # tau_m x = n pi + delta, both signs of x: the closed-form term keeps
    # w_refined and w_adaptive at the accuracy they have elsewhere
    wofz = pytest.importorskip("scipy.special").wofz
    tau = coeffs.params.tau_m
    for n in range(coeffs.params.n_terms + 2):
        for delta in (0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-3, -1e-3):
            for x in ((n * math.pi + delta) / tau, -(n * math.pi + delta) / tau):
                z = complex(x, y)
                want = complex(wofz(z))
                assert rel_error(w_refined(z, coeffs), want) <= 2e-14, z
                assert rel_error(w_adaptive(z, coeffs).value, want) <= 2e-14, z


@pytest.mark.parametrize("tau_m", [7.0, 13.0])
def test_refined_at_subnormal_y(tau_m):
    # an odd tau_m makes tau_m y an odd count of subnormal units, which
    # halving rounds; y = 1e-300 is the same limit without that rounding
    table = build_coefficients(SeriesParams(tau_m=tau_m))
    for n in range(6):
        x = n * math.pi / tau_m
        want = w_refined(complex(x, 1e-300), table)
        for y in (5e-324, 1.5e-323, 2.5e-323, 1e-320):
            assert rel_error(w_refined(complex(x, y), table), want) <= 1e-15, (x, y)


# w_refined at large y, where no term takes the closed form: the values of
# the plain loop over all terms
W_LARGE_Y = {
    200j: complex(0.0028209126572120466, 0.0),
    0.01 + 200j: complex(0.002820912650160205, 1.4104210658756978e-07),
    1 + 300j: complex(0.0018806006023962191, 6.268599025488419e-06),
}


def test_refined_at_large_y_keeps_the_loop(coeffs):
    # the closed form is gated to |tau_m z - n pi| < 1: sin(d/2) overflows
    # for Im d of a few hundred
    for z, want in W_LARGE_Y.items():
        got = w_refined(z, coeffs)
        assert cmath.isfinite(got), z
        assert rel_error(got, want) <= 1e-15, z


def loop_refined(z, table):
    """_refined from the loops over every term n = 1..N, the ones whose c_n
    has underflowed to 0.0 included: the reference for stopping early. The
    parity sums without term |n*| are closed as _refined closes them, each
    times its numerator (-1)^n e^{i tau_m z} - 1, with the closed-form term
    -a_|n*| E(d) / (n* pi + tau_m z) added apart. It applies _refined's two
    axis identities: Re w = e^{-x^2} on y = 0, and Im w = x A - (2/3) x^3
    (A - yB) at |x| < 8e-4 and y < 0.1, with A = 2/sqrt(pi) - 2y Re w and
    B = 2yA - 2 Re w, and Im w = x at x = +-0."""
    tau = table.params.tau_m
    n_terms = table.params.n_terms
    tz = tau * z
    e_itz = cmath.exp(1j * tz)
    n_near = round(tz.real / math.pi) if abs(tz.real) < (n_terms + 0.5) * math.pi else 0
    d = tz - n_near * math.pi
    near = abs(d) < 1.0
    skip, star = 0, 0j
    if near:
        h = 0.5 * d
        e_d = 1j * (cmath.sin(h) / h if h else 1.0) * cmath.exp(1j * h)
        if n_near:
            skip = abs(n_near)
            star = e_d * table.a[skip] / (tz + n_near * math.pi)
    lead = -1j * e_d if near and n_near == 0 else 1j * (1.0 - e_itz) / tz
    odd, even = loop_parity_sums(tz * tz, loop_terms(table.params), skip)
    value = (lead + 2j * tz * ((-e_itz - 1.0) * odd + (e_itz - 1.0) * even)
             - 1j * (z * (tau * tau) / math.sqrt(math.pi)) * star)
    x, y = z.real, z.imag
    re = math.exp(-x * x) if y == 0.0 else value.real
    if abs(x) < 8e-4 and y < 0.1:
        a = 2.0 / math.sqrt(math.pi) - 2.0 * y * re
        # A - yB with B = 2yA - 2 Re w
        return complex(re, x * (a - 2.0 / 3.0 * x * x * (a - 2.0 * y * (y * a - re))))
    return complex(re, x if x == 0.0 else value.imag)


@pytest.mark.parametrize("n_terms", [23, 105, 1000, 20000])
def test_refined_stops_at_last_nonzero_term(n_terms):
    # a_n is 0.0 from n = 105 at tau_m = 12: those terms add signed zeros,
    # including the removable points n* beyond 104
    table = build_coefficients(SeriesParams(n_terms=n_terms))
    tau = table.params.tau_m
    rng = random.Random(29)
    points = [complex(15.0 * rng.random(), 10.0 ** rng.uniform(-300.0, 1.0))
              for _ in range(40)]
    for n in (3, 104, 105, 106, 500, 999):
        for delta in (0.0, 1e-9, -0.5):
            for y in (0.0, 1e-300, 1e-8, 1e-3):
                x = (n * math.pi + delta) / tau
                points += [complex(x, y), complex(-x, y)]
    for z in points:
        got, want = _refined(z, table), loop_refined(z, table)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), z


# the tables test_compiled_sums_equal_loops_bitwise checks the pole sums
# on: at tau_m = 0.1 every a_n has underflowed, so no term is live
REFINED_SUM_PARAMS = [SeriesParams(), SeriesParams(tau_m=6.7, n_terms=40, y_switch=0.5),
                      SeriesParams(tau_m=20.0, n_terms=35, y_switch=2.0),
                      SeriesParams(n_terms=1), SeriesParams(tau_m=0.1)]


@pytest.mark.parametrize("params", REFINED_SUM_PARAMS, ids=repr)
def test_compiled_refined_sum_equals_loop_bitwise(params):
    # the compiled _refined_sum against the loop over every term, next to
    # each removable point tau_m x = n pi (where the closed-form term
    # replaces one term), on the real axis and scattered, before and after
    # a pickle round trip. Bit-identity is claimed for CPython up to 3.13
    # only, as for the pole sums (see coefficients._compile_sums)
    table = build_coefficients(params)
    restored = pickle.loads(pickle.dumps(table))
    tau = params.tau_m
    rng = random.Random(31)
    points = [complex(rng.uniform(-15.0, 15.0), 15.0 * rng.random()) for _ in range(300)]
    points += [complex(x, 0.0) for x in (0.5, 3.0, 8.0, 1e4, 1e100)]
    points += [complex(0.0, y) for y in (1e-300, 0.3, 7.0, 200.0)]
    for n in range(params.n_terms + 2):
        for delta in (0.0, 1e-12, -1e-6, 0.4, -0.7):
            for y in (0.0, 1e-300, 1e-12, 1e-4, 0.5):
                x = (n * math.pi + delta) / tau
                points += [complex(x, y), complex(-x, y)]
    for z in points:
        want = loop_refined(z, table)
        for got in (_refined(z, table), _refined(z, restored)):
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), z


def test_refined_cost_does_not_grow_past_the_underflow():
    short, long = (build_coefficients(SeriesParams(n_terms=n)) for n in (105, 20000))
    z = 1 + 0.5j
    best = [min(timeit.repeat(lambda: w_refined(z, table), number=200, repeat=5))
            for table in (short, long)]
    assert best[1] < 10 * best[0], best


def test_concurrent_evaluation_against_shared_table(coeffs):
    points = random_upper_half_points(seed=17, count=200)
    expected = [w_adaptive(z, coeffs).value for z in points]

    def worker(_):
        return [w_adaptive(z, coeffs).value for z in points]

    with ThreadPoolExecutor(max_workers=4) as pool:
        for result in pool.map(worker, range(4)):
            assert result == expected


def test_kernel_values_are_finite_complex(coeffs):
    z = 0.3 + 0.2j
    for fn in (w_refined, w_cr, refining_part):
        value = fn(z, coeffs)
        assert isinstance(value, complex)
        assert cmath.isfinite(value)
