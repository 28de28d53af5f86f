"""Derived functions: Voigt, the odd companion L, complex erfc."""

import cmath
import math
import random

import pytest

from cef import (DomainError, erfc_complex, erfc_cr_series, imag_l, voigt_k,
                 w_full_plane)
from cef.fixtures import reference_rows
from conftest import rel_error

ROWS = {(row.x, row.y): row for row in reference_rows()}

# real-axis erfc oracle, mpmath at 60 digits
ERFC_ORACLE = {
    0.01: 0.9887165844441503,
    0.05: 0.9436280222029834,
    1.0: 0.15729920705028513,
    3.0: 2.209049699858544e-05,
}

# erfc on the left half-plane, mpmath: -3 + 0.5j at 40 digits; -26.5 + 0.1j
# at 400, since at 40 its ~1.9e-307 imaginary part is lost to cancellation
ERFC_LEFT = {
    complex(-3.0, 0.5): complex(2.0000280653614766, 2.6284897222588233e-07),
    complex(-26.5, 0.1): complex(2.0, 1.8538681101086333e-307),
}

# NaN and +-inf in either argument
NON_FINITE = [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, 1.0),
              (1.0, math.inf), (1.0, -math.inf), (-1.0, math.nan)]

# e^{y^2} erfc(y) = K(0, y), mpmath at 60 digits
K_AT_X0 = {
    0.5: 0.6156903441929259,
    1.0: 0.427583576155807,
    2.0: 0.25539567631050575,
}


class TestVoigt:
    def test_matches_reference_row(self, coeffs):
        got = voigt_k(10.0, 10.0, coeffs)
        assert rel_error(got, ROWS[(10.0, 10.0)].refined.real) <= 1e-12

    def test_even_in_x_exactly(self, coeffs):
        for x, y in [(10.0, 10.0), (0.3, 0.7), (7.7, 2.0)]:
            assert voigt_k(-x, y, coeffs) == voigt_k(x, y, coeffs)

    def test_against_erfc_identity_at_x0(self, coeffs):
        # K(0, y) = e^{y^2} erfc(y); y = 1 sits exactly on the adaptive
        # switch, where the cheap route carries its ~5e-10 error
        assert rel_error(voigt_k(0.0, 1.0, coeffs), K_AT_X0[1.0]) <= 2e-9
        assert rel_error(voigt_k(0.0, 0.5, coeffs), K_AT_X0[0.5]) <= 1e-13
        assert rel_error(voigt_k(0.0, 2.0, coeffs), K_AT_X0[2.0]) <= 1e-13

    def test_positive_and_bounded(self, coeffs):
        for y in (0.5, 1.0, 2.0):
            value = voigt_k(0.0, y, coeffs)
            assert 0.0 < value < 1.0
        rng = random.Random(5)
        for _ in range(200):
            assert voigt_k(rng.uniform(-15, 15), rng.uniform(1e-4, 15), coeffs) > 0.0

    def test_domain_errors(self, coeffs):
        with pytest.raises(DomainError):
            voigt_k(1.0, 0.0, coeffs)
        with pytest.raises(DomainError):
            voigt_k(1.0, -1.0, coeffs)
        for x, y in NON_FINITE:
            with pytest.raises(DomainError, match="finite"):
                voigt_k(x, y, coeffs)


class TestImagL:
    def test_matches_reference_row(self, coeffs):
        got = imag_l(12.5, 12.5, coeffs)
        assert rel_error(got, ROWS[(12.5, 12.5)].cr.imag) <= 1e-12

    def test_zero_on_imaginary_axis(self, coeffs):
        for y in (0.2, 1.0, 6.0):
            assert abs(imag_l(0.0, y, coeffs)) <= 1e-16

    def test_odd_in_x_exactly(self, coeffs):
        for x, y in [(10.0, 10.0), (0.3, 0.7), (7.7, 2.0)]:
            assert imag_l(-x, y, coeffs) == -imag_l(x, y, coeffs)

    @pytest.mark.parametrize("x, y", [(4.019140711064967e-223, 5.477812058913695e-62),
                                      (3.984598703138202e-214, 7.150466159516875e-91)])
    def test_near_the_imaginary_axis(self, coeffs, x, y):
        # the refined series' Im is rounding noise here (it gave -9.34e-178
        # and 7.69e-140); L is x (2/sqrt(pi) - 2y e^{y^2} erfc(y)) + O(x^3)
        erfcx = pytest.importorskip("scipy.special").erfcx
        want = x * (2.0 / math.sqrt(math.pi) - 2.0 * y * erfcx(y))
        for sign in (1.0, -1.0):
            assert rel_error(imag_l(sign * x, y, coeffs), sign * want) <= 1e-15

    def test_domain_errors(self, coeffs):
        with pytest.raises(DomainError):
            imag_l(1.0, -0.5, coeffs)
        for x, y in NON_FINITE:
            with pytest.raises(DomainError, match="finite"):
                imag_l(x, y, coeffs)


class TestErfcComplex:
    def test_zero_is_exact(self, coeffs):
        assert erfc_complex(0j, coeffs) == 1.0

    def test_imaginary_axis_against_mpmath(self, coeffs):
        # erfc(iy) = 1 - i erfi(y): its Re is e^{y^2} Re w(-y), which is 1
        # only as far as Re w(-y) is e^{-y^2} to the last bit
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(37)
        ys = [7.0 * (1.0 - rng.random()) for _ in range(500)] + [5.5, 6.0, 6.9]
        for y in ys:
            got = erfc_complex(complex(0.0, y), coeffs)
            with mpmath.workdps(40):
                want = -float(mpmath.erfi(y))
            assert abs(got.real - 1.0) <= 1e-15, y
            assert abs(got.imag - want) <= 1e-14 * abs(want), y

    def test_real_axis_value(self, coeffs):
        # z = 1 maps to the adaptive switch boundary (Im iz = 1), so the
        # cheap route's ~5e-10 error shows through; the identity routing
        # is the documented trade
        got = erfc_complex(1.0 + 0j, coeffs)
        assert rel_error(got.real, ERFC_ORACLE[1.0]) <= 2e-9
        assert abs(got.imag) <= 1e-12

    def test_reflection(self, coeffs):
        got = erfc_complex(-1.0 + 0j, coeffs)
        want = 2.0 - erfc_complex(1.0 + 0j, coeffs)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_identity_closure(self, coeffs):
        rng = random.Random(31)
        count = 0
        while count < 1_000:
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z) > 4 or z == 0:
                continue
            count += 1
            lhs = erfc_complex(z, coeffs) * cmath.exp(z * z)
            rhs = w_full_plane(1j * z, coeffs).value
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs), z

    def test_far_left_is_two_not_overflow(self, coeffs):
        # w(iz) there needs the reflection 2 e^{z^2} - w(-iz), which
        # overflows although erfc(z) itself is 2
        for z in (-27, complex(-26.5, 0.1)):
            got = erfc_complex(z, coeffs)
            want = ERFC_LEFT.get(z, 2.0)
            assert cmath.isfinite(got), z
            assert rel_error(got, want) <= 1e-15, z

    def test_left_half_plane_components(self, coeffs):
        # the tiny imaginary part survived the reflection only to ~1e-10
        z = complex(-3.0, 0.5)
        got = erfc_complex(z, coeffs)
        want = ERFC_LEFT[z]
        assert rel_error(got.real, want.real) <= 1e-13
        assert rel_error(got.imag, want.imag) <= 1e-13


class TestErfcSeries:
    def test_pole_at_zero(self, coeffs):
        # 1/(tau_m z) divides by zero at every signed zero
        for z in (complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                  complex(-0.0, -0.0)):
            with pytest.raises(DomainError, match="pole"):
                erfc_cr_series(z, coeffs)

    def test_non_finite_argument(self, coeffs):
        for z in (complex(math.nan), complex(math.inf), complex(math.inf, 1.0),
                  complex(1.0, -math.inf)):
            with pytest.raises(DomainError, match="finite"):
                erfc_cr_series(z, coeffs)

    def test_poles_on_the_imaginary_axis(self, coeffs):
        # tau_m z = +-i n pi zeroes the denominator n^2 pi^2 + (tau_m z)^2
        # (for n = 1, 2 the rounded z squares back to the rounded pole)
        tau = coeffs.params.tau_m
        for n in (1, 2):
            for z in (1j * n * math.pi / tau, -1j * n * math.pi / tau):
                with pytest.raises(DomainError, match="pole"):
                    erfc_cr_series(z, coeffs)

    def test_overflow_rule_holds_in_the_lower_half_plane(self, coeffs):
        # the whole plane is erfc's domain, so (tau_m z)^2 decides here
        with pytest.raises(OverflowError, match="overflowed"):
            erfc_cr_series(1e200 - 1j, coeffs)

    def test_accurate_at_larger_argument(self, coeffs):
        assert rel_error(erfc_cr_series(3.0 + 0j, coeffs).real, ERFC_ORACLE[3.0]) <= 1e-11

    def test_agrees_with_identity_route_at_large_x(self, coeffs):
        for z in (2.0 + 0j, 3.0 + 0j, 5.0 + 0j, 8.0 + 0j, 2.0 + 0.3j, 4.0 - 0.5j):
            assert rel_error(erfc_cr_series(z, coeffs), erfc_complex(z, coeffs)) <= 1e-12

    def test_documented_failure_at_small_argument(self, coeffs):
        got = erfc_cr_series(0.01 + 0j, coeffs)
        assert rel_error(got.real, ERFC_ORACLE[0.01]) > 1e-2
        got = erfc_cr_series(0.05 + 0j, coeffs)
        assert rel_error(got, erfc_complex(0.05 + 0j, coeffs)) > 1e-3
