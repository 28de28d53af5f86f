"""Full-plane evaluation: symmetries, real axis, overflow reporting."""

import cmath
import math
import pickle
import random

import pytest

import cef.plane
from cef import DomainError, EvaluationOutcome, Path, w_adaptive, w_full_plane
from cef.fixtures import reference_rows
from conftest import component_rel_errors, rel_error

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
    (w_full_plane, 0j, Path.EXACT_SPECIAL_CASE),
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
    outcome = w_full_plane(0j, coeffs)
    assert outcome.value == 1.0 + 0.0j
    assert outcome.path is Path.EXACT_SPECIAL_CASE


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
        assert abs(outcome.value.real - math.exp(-x * x)) <= 1e-10 * math.exp(-x * x)


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
    # through at most one nested call that does not fold again
    calls = []
    adaptive, full_plane = cef.plane.w_adaptive, cef.plane.w_full_plane

    def counting_adaptive(z, table):
        calls.append(("w_adaptive", z))
        return adaptive(z, table)

    def counting_full_plane(z, table):
        calls.append(("w_full_plane", z))
        return full_plane(z, table)

    monkeypatch.setattr(cef.plane, "w_adaptive", counting_adaptive)
    monkeypatch.setattr(cef.plane, "w_full_plane", counting_full_plane)
    folded = 1.5 + 0.5j
    calls.clear()
    full_plane(folded, coeffs)
    assert calls == [("w_adaptive", folded)]
    for z in (-1.5 + 0.5j, -1.5 - 0.5j, 1.5 - 0.5j):
        calls.clear()
        full_plane(z, coeffs)
        assert calls == [("w_full_plane", folded), ("w_adaptive", folded)], z


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
