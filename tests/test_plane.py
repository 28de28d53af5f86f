"""Full-plane evaluation: symmetries, real axis, overflow reporting."""

import cmath
import math
import pickle
import random

import pytest

import cef.plane
from cef import DomainError, EvaluationOutcome, Path, w_adaptive, w_full_plane
from cef.fixtures import reference_rows
from conftest import component_rel_errors, mp_w, rel_error

ROWS = {(row.x, row.y): row for row in reference_rows()}

# mpmath (60 digits): w(1 - 1j)
W_1_M1J = complex(-1.1370378783511974, 2.026813791854195)

# mpmath (60 digits): w(x + 0i) on the real axis
W_AXIS = {
    0.5: complex(0.7788007830714049, 0.47892517290104347),
    1.0: complex(0.36787944117144233, 0.6071577058413937),
    2.0: complex(0.01831563888873418, 0.3400262170660662),
    3.0: complex(0.00012340980408667956, 0.2011573170376004),
}

# mpmath (60 digits): w at the removable real-axis points tau_m x = n pi
W_LATTICE = [
    (0.2617993877991494, complex(0.933757118080976, 0.28227388511512774)),
    (1.0471975511965976, complex(0.3339971859861319, 0.6019834508126968)),
    (2.8797932657906435, complex(0.0002502101849081217, 0.21113106621933667)),
    (6.021385919380436, complex(1.7936866768385548e-16, 0.09504730845948843)),
]


def _ring(radius):
    """Eight points at |z| = radius: the four half-axes and the four
    quadrant diagonals."""
    s = radius * math.sqrt(0.5)
    return [complex(radius, 0.0), complex(s, s), complex(0.0, radius), complex(-s, s),
            complex(-radius, 0.0), complex(-s, -s), complex(0.0, -radius), complex(s, -s)]


@pytest.mark.parametrize("kernel, z, path", [
    (w_adaptive, 3.0 + 2.0j, Path.COMMON_ONLY),
    (w_adaptive, 3.0 + 0.5j, Path.FULL_DECOMPOSITION),
    (w_adaptive, complex(math.pi / 12.0, 1e-3), Path.REFINED),
    (w_full_plane, 0j, Path.REFINED),
    (w_full_plane, 3.0 + 0j, Path.REFINED),
    (w_full_plane, -3.0 - 0.5j, Path.SYMMETRY_EXTENDED),
])
def test_every_route_returns_the_public_outcome_type(kernel, z, path, coeffs):
    outcome = kernel(z, coeffs)
    assert type(outcome) is EvaluationOutcome
    assert outcome._fields == ("value", "path")
    assert outcome.path is path
    assert outcome == EvaluationOutcome(outcome.value, outcome.path)
    value, route = outcome
    assert (value, route) == (outcome.value, outcome.path)
    assert pickle.loads(pickle.dumps(outcome)) == outcome
    assert repr(outcome).startswith("EvaluationOutcome(value=")


def test_origin_is_exact(coeffs):
    # the origin is an ordinary real-axis point, route refined: w(+-0 +- 0i)
    # is 1 with the zero Im of x's sign, so w(-0 + 0i) = conj w(+0 + 0i)
    for x in (0.0, -0.0):
        for y in (0.0, -0.0):
            outcome = w_full_plane(complex(x, y), coeffs)
            assert outcome.value == 1.0 + 0.0j
            assert outcome.value.imag.hex() == math.copysign(0.0, x).hex(), (x, y)
            assert outcome.path is Path.REFINED


@pytest.mark.parametrize("radius", [1e-300, 1e-20, 1e-12, 9.9e-9, 1.01e-8, 1e-7, 1e-6])
def test_near_origin_taylor_disc(coeffs, radius):
    # the origin rings: the lead term i (1 - e^{i tau_m z}) / (tau_m z)
    # cancels to ~eps/|tau_m z| here unless it is written in closed form
    wofz = pytest.importorskip("scipy.special").wofz
    for z in _ring(radius):
        outcome = w_full_plane(z, coeffs)
        assert rel_error(outcome.value, complex(wofz(z))) <= 1e-15, z


def test_matches_algorithm_680_column(coeffs):
    # y = 1 sits on the adaptive switch, where the common-only route's
    # documented ~2.5e-10 error shows
    for (x, y), row in ROWS.items():
        err_re, err_im = component_rel_errors(w_full_plane(complex(x, y), coeffs).value,
                                              row.reference)
        bound = 5e-10 if y == 1.0 else 1e-13
        assert err_re <= bound and err_im <= bound, (x, y)


def test_nonfinite_input_rejected(coeffs):
    for z in (complex(math.nan, 1.0), complex(1.0, math.inf), complex(-math.inf, 0.0)):
        with pytest.raises(DomainError):
            w_full_plane(z, coeffs)


def test_negative_x_by_conjugation(coeffs):
    outcome = w_full_plane(-1 + 1j, coeffs)
    assert outcome.path is Path.SYMMETRY_EXTENDED
    # conjugate of the (1, 1) table value; adaptive routes y = 1 through
    # the pole sum, hence comparison against that column
    want = ROWS[(1.0, 1.0)].cr.conjugate()
    err_re, err_im = component_rel_errors(outcome.value, want)
    assert err_re <= 1e-12 and err_im <= 1e-12


def test_imaginary_part_near_the_imaginary_axis(coeffs):
    # route refined at the folded point, |x| < 1e-9: Im w has the sign of x
    # and is within 1e-15 of the first-order form x (2/sqrt(pi) - 2y e^{y^2}
    # erfc(y)) of w' = -2zw + 2i/sqrt(pi), whose x^3 term is below 1e-18 here
    erfcx = pytest.importorskip("scipy.special").erfcx
    rng = random.Random(9)
    for _ in range(4000):
        x = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300.0, -9.0)
        y = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-300.0, math.log10(4e-3))
        got = w_full_plane(complex(x, y), coeffs).value.imag
        want = x * (2.0 / math.sqrt(math.pi) - 2.0 * y * erfcx(y))
        assert math.copysign(1.0, got) == math.copysign(1.0, x), (x, y)
        assert abs(got - want) <= 1e-15 * abs(want), (x, y)


def test_conjugation_symmetry_keeps_the_sign_of_zero_below_the_axis(coeffs):
    # w(-conj z) = conj w(z) at z = +0 - iy: Im w is +0.0 there and -0.0 at
    # -0 - iy, as the limits from x > 0 and x < 0 are; below y ~ 0.0045
    # the folded point takes the refined route, from 10 on the continued
    # fraction
    for y in (5e-324, 1e-300, 1e-10, 0.001, 0.004, 0.5, 2.0, 20.0):
        plus = w_full_plane(complex(0.0, -y), coeffs).value
        minus = w_full_plane(complex(-0.0, -y), coeffs).value
        assert minus.real == plus.real, y
        assert (math.copysign(1.0, plus.imag), math.copysign(1.0, minus.imag)) == (1.0, -1.0), y


def test_conjugation_symmetry_is_exact(coeffs):
    rng = random.Random(23)
    for _ in range(1_000):
        z = complex(15.0 * rng.random(), 15.0 * (1.0 - rng.random()))
        for y in (z.imag, 0.0):
            plus = w_full_plane(complex(z.real, y), coeffs).value
            minus = w_full_plane(complex(-z.real, y), coeffs).value
            assert minus.real == plus.real
            assert minus.imag == -plus.imag


def test_reflection_identity(coeffs):
    # relative to the identity's own scale: inside this box 2 e^{-z^2}
    # ranges over ~e^{-25}..e^9 while the differenced w values stay O(1),
    # so measuring against 2 e^{-z^2} alone would amplify benign rounding
    rng = random.Random(29)
    for _ in range(1_000):
        z = complex(rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0))
        if z == 0:
            continue
        plus = w_full_plane(z, coeffs).value
        minus = w_full_plane(-z, coeffs).value
        rhs = 2.0 * cmath.exp(-z * z)
        scale = max(abs(plus), abs(minus), abs(rhs))
        assert abs(plus + minus - rhs) <= 1e-12 * scale


def test_lower_half_plane_value(coeffs):
    outcome = w_full_plane(1 - 1j, coeffs)
    assert outcome.path is Path.SYMMETRY_EXTENDED
    assert rel_error(outcome.value, W_1_M1J) <= 1e-9


def test_real_axis_consistency(coeffs):
    for x, want in W_AXIS.items():
        outcome = w_full_plane(complex(x, 0.0), coeffs)
        assert outcome.path is Path.REFINED
        assert rel_error(outcome.value, want) <= 1e-13
        # real part is e^{-x^2}
        assert abs(outcome.value.real - math.exp(-x * x)) <= 1e-14 * math.exp(-x * x)


def test_real_axis_sweep_against_mpmath(coeffs):
    # Re w(x) = e^{-x^2} exactly on y = 0 (DLMF 7.5), which the series
    # resolves only to ~eps |w| (~4e4 relative at |x| ~ 7): Re is within
    # the rounding of x^2 in e^{-x^2} (<= 7.1e-15 at |x| < 10) and positive
    pytest.importorskip("mpmath")
    rng = random.Random(2027)
    for _ in range(2_000):
        x = rng.uniform(-10.0, 10.0)
        got = w_full_plane(complex(x, 0.0), coeffs).value
        want = mp_w(complex(x, 0.0))
        re_error, im_error = component_rel_errors(got, want)
        assert got.real > 0.0, x
        assert re_error <= 1e-14, x
        assert im_error <= 5e-15, x


def test_real_axis_removable_points(coeffs):
    # tau_m x = n pi makes one series denominator vanish; the combined
    # term has a finite limit and the evaluation must not degrade there
    for x, want in W_LATTICE:
        got = w_full_plane(complex(x, 0.0), coeffs).value
        assert abs(got - want) <= 1e-13 * abs(want)
        # and just next to the lattice point, against the first-order
        # step w(x + h) = w(x) + h w'(x), w'(z) = 2i/sqrt(pi) - 2 z w(z),
        # whose h^2 remainder stays below 1e-13 here
        for eps in (1e-13, 1e-10, 1e-7):
            step = (x + eps) - x
            near = want + step * (2j / math.sqrt(math.pi) - 2.0 * x * want)
            got = w_full_plane(complex(x + step, 0.0), coeffs).value
            assert abs(got - near) <= 1e-13 * abs(near)


def test_sweep_near_the_real_axis(coeffs):
    # 60 000 seeded points, half of them near the removable points
    # x = +-n pi / tau_m, with y log-uniform down to the subnormals and
    # 20% exactly on the axis. The bound is wofz's: near x = 9.9 on the
    # axis it is itself ~4e-14 from a 40-digit mpmath value, ours ~7e-16
    np = pytest.importorskip("numpy")
    wofz = pytest.importorskip("scipy.special").wofz
    rng = random.Random(2024)
    tau = coeffs.params.tau_m
    gap = 10.0 ** -0.5
    n_max = int((15.0 - gap) * tau / math.pi)
    points = []
    for i in range(60_000):
        if i % 2:
            offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -0.5)
            x = rng.choice((-1.0, 1.0)) * rng.randint(0, n_max) * math.pi / tau + offset
        else:
            x = rng.uniform(-15.0, 15.0)
        y = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-320.0, 0.0)
        points.append(complex(x, y))
    want = wofz(np.array(points))
    got = np.array([w_full_plane(z, coeffs).value for z in points])
    errors = np.abs(got - want) / np.abs(want)
    worst = int(np.argmax(errors))
    assert errors[worst] <= 5e-14, points[worst]


def test_negative_real_axis(coeffs):
    got = w_full_plane(complex(-2.0, 0.0), coeffs).value
    want = W_AXIS[2.0].conjugate()
    assert rel_error(got, want) <= 1e-13


def test_negative_real_axis_removable_points(coeffs):
    # tau_m x = -n pi zeroes the factor n pi + tau_m x of the real-axis
    # series; the fold sends these points to +x, where it is never zero
    tau = coeffs.params.tau_m
    for n in range(1, coeffs.params.n_terms + 1):
        x = n * math.pi / tau
        outcome = w_full_plane(complex(-x, 0.0), coeffs)
        plus = w_full_plane(complex(x, 0.0), coeffs).value
        assert cmath.isfinite(outcome.value), n
        assert outcome.value.real.hex() == plus.real.hex(), n
        assert outcome.value.imag.hex() == (-plus.imag).hex(), n
        assert outcome.path is Path.SYMMETRY_EXTENDED, n


def test_one_evaluation_per_point(coeffs, monkeypatch):
    # a single fold: one series evaluation in every quadrant, reached
    # through at most one nested call that does not fold again; at
    # |z| >= 10 that evaluation is the continued fraction, never w_adaptive
    calls = []
    adaptive, full_plane, edge = cef.plane.w_adaptive, cef.plane.w_full_plane, cef.plane._edge

    def counting(name, fn):
        def counted(z, table):
            calls.append((name, z))
            return fn(z, table)
        return counted

    monkeypatch.setattr(cef.plane, "w_adaptive", counting("w_adaptive", adaptive))
    monkeypatch.setattr(cef.plane, "w_full_plane", counting("w_full_plane", full_plane))
    monkeypatch.setattr(cef.plane, "_edge", counting("_edge", edge))
    for folded, route, path in ((1.5 + 0.5j, "w_adaptive", Path.FULL_DECOMPOSITION),
                                (12.0 + 0.5j, "_edge", Path.CONTINUED_FRACTION)):
        calls.clear()
        assert full_plane(folded, coeffs).path is path
        assert calls == [(route, folded)]
        for z in (-folded.conjugate(), -folded, folded.conjugate()):
            calls.clear()
            full_plane(z, coeffs)
            assert calls == [("w_full_plane", folded), (route, folded)], z


def test_reflection_overflow_is_reported(coeffs):
    with pytest.raises(OverflowError):
        w_full_plane(complex(0.0, -27.0), coeffs)  # y^2 - x^2 = 729
    with pytest.raises(OverflowError):
        w_full_plane(complex(3.0, -40.0), coeffs)
    # y^2 - x^2 would be inf - inf = nan here; the factored test is not
    for z in (complex(1e160, -1e170), complex(-3e200, -4e200)):
        with pytest.raises(OverflowError):
            w_full_plane(z, coeffs)
    # just inside the representable band the value is huge but finite
    outcome = w_full_plane(complex(0.0, -26.4), coeffs)
    assert cmath.isfinite(outcome.value)
    assert abs(outcome.value) > 1e300
