"""Quadrature oracle: the ground-truth anchor for every series kernel."""

import math

import pytest

from cef import (ConvergenceError, DomainError, QuadratureSpec, oracle,
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
    # no field may be a bool (True would become 1), and the panel budget is an int
    {"max_subdivisions": True},
    {"max_subdivisions": 16.0},
    {"tau_max": True},
    {"abs_tol": True},
    # an int too large for a float is rejected, not an OverflowError
    {"tau_max": 10 ** 400},
    {"max_subdivisions": 10 ** 400},
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
        with pytest.raises(DomainError, match="finite"):
            w_quadrature(z, qspec)
        with pytest.raises(DomainError, match="finite"):
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


def _untruncated(z, spec):
    # w_quadrature without the tail cutoff: the same integrand and panel
    # width, integrated out to min(tau_max, _DECAY_CUTOFF)
    np = pytest.importorskip("numpy")
    x, y = z.real, z.imag

    def integrand(t):
        return np.exp(t * complex(-y, x) - 0.25 * t * t)

    upper = min(spec.tau_max, oracle._DECAY_CUTOFF)
    width = min(1.0, math.pi / (4.0 * max(1.0, abs(x))))
    return oracle._refine_panels(integrand, upper, width, spec) / math.sqrt(math.pi)


def test_tail_cutoff_changes_no_bit(qspec):
    # the panels kept are the untruncated run's panels; the ones dropped
    # are ~1e-30 against results ~1e-2, below every last bit on the box
    # that perfbench's oracle_scan samples
    for x in _log_nodes(0.01, 15.0, 10):
        for y in _log_nodes(1e-4, 15.0, 10):
            z = complex(x, y)
            assert w_quadrature(z, qspec) == _untruncated(z, qspec), z


@pytest.mark.parametrize("abs_tol", [1e-14, 1e-6])
@pytest.mark.parametrize("y", [1e-4, 1.0, 15.0, 100.0])
def test_omitted_tail_is_below_tolerance(y, abs_tol):
    mpmath = pytest.importorskip("mpmath")
    cutoff = oracle._tail_cutoff(y, abs_tol)
    with mpmath.workdps(40):
        tail = mpmath.quad(lambda t: mpmath.exp(-t * t / 4 - y * t),
                           [cutoff, mpmath.inf]) / mpmath.sqrt(mpmath.pi)
    assert 0 < tail <= abs_tol * 2.0 ** -52


@pytest.mark.parametrize("z, abs_tol", [
    # the cutoff passes 52.9 here, so _DECAY_CUTOFF (and tau_max) stop it
    (2.5 + 2.5j, 5e-324),
    # L is clamped to 1 and the cutoff is about 0.83
    (1 + 1j, 1e300),
    (0.5 + 1e-300j, 1e-14),
    (3 + 1e6j, 1e-14),
    (1 + 1e200j, 1e-14),
])
def test_cutoff_edge_cases_return_finite_values(z, abs_tol):
    # 2 (sqrt(y^2 + L) - y) would cancel at y = 1e6 and overflow at 1e200.
    # Only finiteness is checked here; test_large_y_matches_wofz checks
    # the values at large y.
    cutoff = oracle._tail_cutoff(z.imag, abs_tol)
    assert math.isfinite(cutoff) and cutoff > 0.0
    assert math.isfinite(abs(w_quadrature(z, QuadratureSpec(abs_tol=abs_tol))))


@pytest.mark.parametrize("y", [2e4, 5e4, 1e5, 1e6, 1e100, 1e200])
@pytest.mark.parametrize("x", [0.0, 3.0, 100.0])
def test_large_y_matches_wofz(x, y, qspec):
    # the first panel must shrink with y: at pi/4 wide every node sits where
    # e^{-y tau} < 1e-29 from y ~ 2e4 on, and two levels that both miss the
    # peak agree
    wofz = pytest.importorskip("scipy.special").wofz
    z = complex(x, y)
    assert rel_error(w_quadrature(z, qspec), complex(wofz(z))) <= 1e-13


def test_tiny_tolerance_stops_at_the_decay_cutoff():
    spec = QuadratureSpec(abs_tol=5e-324)
    assert oracle._tail_cutoff(1.0, spec.abs_tol) > oracle._DECAY_CUTOFF
    assert w_quadrature(1 + 1j, spec) == _untruncated(1 + 1j, spec)


def test_panel_budget_counts_panels_up_to_the_cutoff(qspec):
    # 1910 panels to tau = 50 at the converged level, about a third of
    # that up to the cutoff near tau = 15.5
    z = 15.0 + 0.5j
    budget = QuadratureSpec(max_subdivisions=1000)
    with pytest.raises(ConvergenceError):
        _untruncated(z, budget)
    assert w_quadrature(z, budget) == w_quadrature(z, qspec)


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


def test_gauss_legendre_rule_is_built_once(coeffs, qspec, monkeypatch):
    # a rule built per call would more than double the cost of each w_quadrature
    legendre = pytest.importorskip("numpy").polynomial.legendre
    builds = []
    real_leggauss = legendre.leggauss

    def counting_leggauss(deg):
        builds.append(deg)
        return real_leggauss(deg)

    monkeypatch.setattr(legendre, "leggauss", counting_leggauss)
    oracle._gauss_legendre.cache_clear()
    first = w_quadrature(1 + 1j, qspec)
    assert w_quadrature(1 + 1j, qspec) == first
    w_quadrature(0.5 + 2j, qspec)
    w_finite_quadrature(1 + 1j, coeffs, qspec)
    assert builds == [20]
