"""Full-plane evaluation: symmetries, real axis, overflow reporting."""

import cmath
import math
import random

import pytest

from cef import DomainError, Path, is_in_native_domain, w_full_plane
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


def test_native_domain_predicate():
    assert is_in_native_domain(1 + 1j)
    assert not is_in_native_domain(1 - 1j)
    assert not is_in_native_domain(1 + 0j)
    assert not is_in_native_domain(complex(math.nan, 1.0))
    assert not is_in_native_domain(complex(1.0, math.inf))


def test_origin_is_exact(coeffs):
    outcome = w_full_plane(0j, coeffs)
    assert outcome.value == 1.0 + 0.0j
    assert outcome.path is Path.EXACT_SPECIAL_CASE


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
        plus = w_full_plane(z, coeffs).value
        minus = w_full_plane(complex(-z.real, z.imag), coeffs).value
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
        # and just next to the lattice point, closer than one ulp step
        for eps in (1e-13, 1e-10, 1e-7):
            got = w_full_plane(complex(x + eps, 0.0), coeffs).value
            assert abs(got - want) <= 1e-5 * abs(want)


def test_negative_real_axis(coeffs):
    got = w_full_plane(complex(-2.0, 0.0), coeffs).value
    want = W_AXIS[2.0].conjugate()
    assert rel_error(got, want) <= 1e-13


def test_reflection_overflow_is_reported(coeffs):
    with pytest.raises(OverflowError):
        w_full_plane(complex(0.0, -27.0), coeffs)  # y^2 - x^2 = 729
    with pytest.raises(OverflowError):
        w_full_plane(complex(3.0, -40.0), coeffs)
    # just inside the representable band the value is huge but finite
    outcome = w_full_plane(complex(0.0, -26.4), coeffs)
    assert cmath.isfinite(outcome.value)
    assert abs(outcome.value) > 1e300
