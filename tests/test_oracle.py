"""Quadrature oracle: the ground-truth anchor for every series kernel."""

import math

import pytest

from cef import (ConvergenceError, DomainError, QuadratureSpec,
                 w_finite_quadrature, w_quadrature, w_refined)
from cef.fixtures import reference_rows
from conftest import rel_error

ROWS = {(row.x, row.y): row for row in reference_rows()}

# mpmath (60 digits) spot truths
W_SPOTS = {
    complex(0.5, 0.0001): complex(0.7787358415658242, 0.47884730085860905),
    complex(7.7, 0.3): complex(0.0029254649541105558, 0.0737885699898937),
    complex(0.01, 15.0): complex(0.037529589891034616, 2.4909743500941303e-05),
}
K_0_1 = 0.427583576155807  # e * erfc(1), mpmath


@pytest.mark.parametrize("kwargs", [
    {"tau_max": 0.0},
    {"tau_max": -1.0},
    {"abs_tol": 0.0},
    {"abs_tol": -1e-10},
    {"max_subdivisions": 0},
])
def test_invalid_spec_rejected(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_domain_errors(coeffs, qspec):
    with pytest.raises(DomainError):
        w_quadrature(1.0 + 0j, qspec)
    with pytest.raises(DomainError):
        w_quadrature(1.0 - 1.0j, qspec)
    with pytest.raises(DomainError):
        w_finite_quadrature(1.0 + 0j, coeffs, qspec)
    # non-finite z is rejected up front, before any panel work
    for z in (complex(math.nan, 1.0), complex(math.inf, 1.0), complex(1.0, math.inf)):
        with pytest.raises(DomainError):
            w_quadrature(z, qspec)
        with pytest.raises(DomainError):
            w_finite_quadrature(z, coeffs, qspec)


def test_matches_reference_row(qspec):
    got = w_quadrature(2.5 + 2.5j, qspec)
    assert rel_error(got, ROWS[(2.5, 2.5)].refined) <= 1e-12


def test_matches_independent_truth(qspec):
    for z, want in W_SPOTS.items():
        assert rel_error(w_quadrature(z, qspec), want) <= 1e-13, z


def test_pure_imaginary_argument(qspec):
    got = w_quadrature(1j, qspec)
    assert abs(got.real - K_0_1) <= 1e-12 * K_0_1
    assert got.imag == 0.0  # the sine factor vanishes identically at x = 0


def test_truncation_point_is_irrelevant(qspec):
    # the integrand is below double precision long before tau = 50
    for z in (2.5 + 2.5j, 1 + 1j, 10 + 0.5j):
        a = w_quadrature(z, QuadratureSpec(tau_max=50.0))
        b = w_quadrature(z, QuadratureSpec(tau_max=60.0))
        scale = max(abs(a.real), abs(a.imag))
        assert abs(a.real - b.real) <= math.ulp(scale)
        assert abs(a.imag - b.imag) <= math.ulp(scale)


def test_self_consistency_under_tighter_tolerance():
    for i in range(5):
        for j in range(5):
            z = complex(0.5 + 3.5 * i, 0.1 + 3.5 * j)
            a = w_quadrature(z, QuadratureSpec(abs_tol=1e-14))
            b = w_quadrature(z, QuadratureSpec(abs_tol=5e-15))
            assert abs(a - b) < 1e-14


def test_subdivision_budget_enforced():
    with pytest.raises(ConvergenceError):
        w_quadrature(15.0 + 0.5j, QuadratureSpec(max_subdivisions=4))


def test_finite_form_reproduces_refined_series(coeffs, qspec):
    # the refined series is the closed-form antiderivative of this
    # integral, so agreement validates the analytic integration step
    for z, tol in ((1 + 1j, 1e-11), (0.1 + 0.1j, 1e-10), (5 + 5j, 1e-11)):
        got = w_finite_quadrature(z, coeffs, qspec)
        assert rel_error(got, w_refined(z, coeffs)) <= tol, z


def test_finite_form_grid_agreement(coeffs, qspec):
    worst = 0.0
    for x in _log_nodes(0.01, 15.0, 7):
        for y in _log_nodes(0.01, 15.0, 7):
            z = complex(x, y)
            err = rel_error(w_finite_quadrature(z, coeffs, qspec), w_refined(z, coeffs))
            worst = max(worst, err)
    assert worst <= 1e-10


def test_defining_integral_grid_agreement(coeffs, qspec):
    worst = 0.0
    for x in _log_nodes(0.01, 15.0, 5):
        for y in _log_nodes(1e-4, 15.0, 5):
            z = complex(x, y)
            err = rel_error(w_refined(z, coeffs), w_quadrature(z, qspec))
            worst = max(worst, err)
    assert worst <= 1e-10


def _log_nodes(lo, hi, n):
    step = (math.log10(hi) - math.log10(lo)) / (n - 1)
    return [10.0 ** (math.log10(lo) + step * k) for k in range(n)]
