"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import cmath
import math
import random
from contextlib import contextmanager

import pytest

from cef import (GridSpec, bench_points, erfc_complex, erfc_cr_series,
                 error_scan, refining_part, w_adaptive,
                 w_cr, w_finite_quadrature, w_full_plane, w_quadrature,
                 w_refined)
from cef.series import Path
from cef.fixtures import reference_rows
from conftest import component_rel_errors, interleaved_throughputs, rel_error

ROWS = reference_rows()

# real-axis erfc oracle values, mpmath at 60 digits
ERFC_3 = 2.209049699858544e-05
ERFC_001 = 0.9887165844441503


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    else:
        print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_table_reproduction_refined(coeffs):
    with criterion(1, "table reproduction, refined series, <=1e-12"):
        for row in ROWS:
            got = w_refined(complex(row.x, row.y), coeffs)
            err_re, err_im = component_rel_errors(got, row.refined)
            assert err_re <= 1e-12 and err_im <= 1e-12, (row.x, row.y)


def test_criterion_2_table_reproduction_pole_sum(coeffs):
    with criterion(2, "table reproduction, pole sum incl. failed rows, <=1e-10"):
        for row in ROWS:
            got = w_cr(complex(row.x, row.y), coeffs)
            err_re, err_im = component_rel_errors(got, row.cr)
            assert err_re <= 1e-10 and err_im <= 1e-10, (row.x, row.y)
        assert any(row.cr_status == "failed" for row in ROWS)


def test_criterion_3_decomposition_identity(coeffs):
    with criterion(3, "common + refining = refined on 1e4 random points, <=1e-13"):
        rng = random.Random(20120810)
        for _ in range(10_000):
            z = complex(15.0 * rng.random(), 15.0 * (1.0 - rng.random()))
            recombined = w_cr(z, coeffs) + refining_part(z, coeffs)
            assert rel_error(recombined, w_refined(z, coeffs)) <= 1e-13, z


def test_criterion_4_oracle_anchor(coeffs, qspec):
    with criterion(4, "quadrature anchor, 20x20 and 7x7 grids, <=1e-10"):
        grid = GridSpec(x_min=0.01, x_max=15.0, y_min=1e-4, y_max=15.0,
                        nx=20, ny=20, spacing="logarithmic")
        for y in grid.y_nodes():
            for x in grid.x_nodes():
                z = complex(x, y)
                err = rel_error(w_refined(z, coeffs), w_quadrature(z, qspec))
                assert err <= 1e-10, z

        small = GridSpec(x_min=0.01, x_max=15.0, y_min=0.01, y_max=15.0,
                         nx=7, ny=7, spacing="logarithmic")
        for y in small.y_nodes():
            for x in small.x_nodes():
                z = complex(x, y)
                err = rel_error(w_finite_quadrature(z, coeffs, qspec),
                                w_refined(z, coeffs))
                assert err <= 1e-10, z


def test_criterion_5_small_y_failure_regime(coeffs, qspec):
    with criterion(5, "pole sum: >=1e-2 error at y=0.1, <=1e-13 at y=2.5"):
        low = error_scan(GridSpec(0.01, 15.0, 0.1, 0.1, 20, 1, "logarithmic"),
                         "cr", "oracle", coeffs, qspec)
        assert low.max_rel_error >= 1e-2
        high = error_scan(GridSpec(0.01, 15.0, 2.5, 2.5, 20, 1, "logarithmic"),
                          "cr", "oracle", coeffs, qspec)
        assert high.max_rel_error <= 1e-13


def test_criterion_6_adaptive_dispatch(coeffs):
    with criterion(6, "adaptive dispatch: exact cr at y>=1, refined-grade below"):
        rng = random.Random(99)
        for _ in range(2_000):
            z = complex(15.0 * rng.random(), 15.0 * (1.0 - rng.random()))
            outcome = w_adaptive(z, coeffs)
            if z.imag >= 1.0:
                assert outcome.path is Path.COMMON_ONLY
                assert outcome.value == w_cr(z, coeffs)
            else:
                assert outcome.path is Path.FULL_DECOMPOSITION
                assert rel_error(outcome.value, w_refined(z, coeffs)) <= 1e-13
        boundary = w_adaptive(complex(3.0, 1.0), coeffs)
        assert boundary.path is Path.COMMON_ONLY
        assert boundary.value == w_cr(complex(3.0, 1.0), coeffs)


def test_criterion_7_acceleration(coeffs):
    with criterion(7, "common-only throughput >= 1.2x full decomposition on 1e6 points"):
        fast, slow = interleaved_throughputs("adaptive_high_y", "adaptive_low_y", coeffs)
        ratio = fast / slow
        print(f"  common-only vs full decomposition: {ratio:.2f}x")
        assert ratio >= 1.2


def test_criterion_8_derived_function_identities(coeffs):
    with criterion(8, "erfc identities and series validity region"):
        assert erfc_complex(0j, coeffs) == 1.0

        rng = random.Random(77)
        count = 0
        while count < 1_000:
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z) > 4 or z == 0:
                continue
            count += 1
            lhs = erfc_complex(z, coeffs) * cmath.exp(z * z)
            rhs = w_full_plane(1j * z, coeffs).value
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs), z

        assert rel_error(erfc_cr_series(3.0 + 0j, coeffs).real, ERFC_3) <= 1e-11
        assert rel_error(erfc_cr_series(0.01 + 0j, coeffs).real, ERFC_001) > 1e-3


def test_criterion_9_symmetry_suite(coeffs):
    with criterion(9, "conjugation/reflection symmetries and loud overflow"):
        rng = random.Random(55)
        for _ in range(1_000):
            z = complex(15.0 * rng.random(), 15.0 * (1.0 - rng.random()))
            plus = w_full_plane(z, coeffs).value
            minus = w_full_plane(complex(-z.real, z.imag), coeffs).value
            assert minus == plus.conjugate()

        for _ in range(1_000):
            z = complex(rng.uniform(-5, 5), rng.uniform(-3, 3))
            if z == 0:
                continue
            plus = w_full_plane(z, coeffs).value
            minus = w_full_plane(-z, coeffs).value
            rhs = 2.0 * cmath.exp(-z * z)
            scale = max(abs(plus), abs(minus), abs(rhs))
            assert abs(plus + minus - rhs) <= 1e-12 * scale, z

        with pytest.raises(OverflowError):
            w_full_plane(complex(1.0, -30.0), coeffs)
        finite = w_full_plane(complex(0.0, -26.4), coeffs).value
        assert cmath.isfinite(finite)


def test_criterion_7_companion_pole_sum_vs_refined(coeffs):
    # companion measurement for the acceleration claim: the bare pole sum
    # against the refined series on identical points
    with criterion(7, "companion: cr >= 1.2x refined on shared points"):
        assert bench_points("full", 10, 42) == bench_points("full", 10, 42)
        fast, slow = interleaved_throughputs("cr", "refined", coeffs)
        ratio = fast / slow
        print(f"  pole sum vs refined: {ratio:.2f}x")
        assert ratio >= 1.2
