"""Error scans and throughput measurement."""

import math
import sys
import warnings

import pytest

from cef import (ConvergenceError, GridSpec, Path, QuadratureSpec, analysis, oracle,
                 bench_points, error_scan, measure_throughput, w_adaptive, w_quadrature,
                 w_refined)
from cef.cli import _evaluate
from conftest import interleaved_throughputs, rel_error


def row_grid(y, nx=20):
    return GridSpec(x_min=0.01, x_max=15.0, y_min=y, y_max=y,
                    nx=nx, ny=1, spacing="logarithmic")


class TestGridSpec:
    @pytest.mark.parametrize("kwargs", [
        {"x_min": 2.0, "x_max": 1.0, "y_min": 1.0, "y_max": 2.0, "nx": 3, "ny": 3},
        {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 2.0, "nx": 3, "ny": 3},
        {"x_min": 0.0, "x_max": 1.0, "y_min": 2.0, "y_max": 1.0, "nx": 3, "ny": 3},
        {"x_min": 0.0, "x_max": 1.0, "y_min": 1.0, "y_max": 2.0, "nx": 0, "ny": 3},
        {"x_min": 0.0, "x_max": 1.0, "y_min": 1.0, "y_max": 2.0, "nx": 3, "ny": 3,
         "spacing": "logarithmic"},
        {"x_min": 0.1, "x_max": 1.0, "y_min": 1.0, "y_max": 2.0, "nx": 3, "ny": 3,
         "spacing": "cubic"},
        # infinite bounds would put NaN nodes on the grid
        {"x_min": 0.0, "x_max": math.inf, "y_min": 1.0, "y_max": 2.0, "nx": 3, "ny": 3},
        {"x_min": -math.inf, "x_max": 1.0, "y_min": 1.0, "y_max": 2.0, "nx": 3, "ny": 3},
        {"x_min": 0.0, "x_max": 1.0, "y_min": 1.0, "y_max": math.inf, "nx": 3, "ny": 3},
        {"x_min": 0.1, "x_max": math.inf, "y_min": 1.0, "y_max": 2.0, "nx": 3, "ny": 3,
         "spacing": "logarithmic"},
        # node counts must be int and no field may be a bool (True would become 1)
        {"nx": 2.5},
        {"ny": 3.0},
        {"nx": True},
        {"ny": False},
        {"x_min": True, "x_max": 2.0},
        {"y_min": True},
        {"y_max": True},
        # an int too large for a float is rejected, not an OverflowError
        {"x_max": 10 ** 400},
        {"y_max": 10 ** 400},
        {"nx": 10 ** 400},
    ])
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    def test_span_that_overflows_is_rejected(self):
        # finite bounds whose difference overflows would make linspace lay
        # the nodes [nan, inf, 1.7e308]; the widest finite span still works
        with pytest.raises(ValueError, match="span"):
            GridSpec(x_min=-1.7e308, x_max=1.7e308, nx=3)
        half = 0.5 * sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nodes = GridSpec(x_min=-half, x_max=half, nx=3).x_nodes()
        assert nodes == [-half, 0.0, half]

    def test_single_node_axes(self):
        grid = GridSpec(x_min=1.0, x_max=1.0, y_min=1.0, y_max=1.0, nx=1, ny=1)
        assert grid.x_nodes() == [1.0]
        assert grid.y_nodes() == [1.0]

    def test_log_nodes_span_range(self):
        grid = GridSpec(x_min=0.01, x_max=15.0, y_min=1e-4, y_max=15.0,
                        nx=20, ny=20, spacing="logarithmic")
        xs = grid.x_nodes()
        assert math.isclose(xs[0], 0.01) and math.isclose(xs[-1], 15.0)
        assert len(xs) == 20

    @pytest.mark.parametrize("grid", [
        GridSpec(),
        GridSpec(spacing="logarithmic"),
        row_grid(1.0, nx=32),   # the x axis of perfbench's oracle_scan rows
        GridSpec(x_min=0.3, x_max=0.3, y_min=2.0, y_max=2.0, nx=1, ny=1),
        GridSpec(x_min=0.3, x_max=0.3, y_min=2.0, y_max=2.0, nx=1, ny=1,
                 spacing="logarithmic"),
    ], ids=repr)
    def test_nodes_are_numpys_bit_for_bit(self, grid):
        # numpy's power is not libm's pow: a pure-Python log axis differs in
        # the last bit at many nodes, which would change every scan output
        np = pytest.importorskip("numpy")
        if grid.spacing == "logarithmic":
            axis = lambda lo, hi, n: np.logspace(math.log10(lo), math.log10(hi), n)
        else:
            axis = np.linspace
        for nodes, (lo, hi, n) in ((grid.x_nodes(), (grid.x_min, grid.x_max, grid.nx)),
                                   (grid.y_nodes(), (grid.y_min, grid.y_max, grid.ny))):
            assert [v.hex() for v in nodes] == [float(v).hex() for v in axis(lo, hi, n)]


class TestErrorScan:
    def test_rejects_unknown_names(self, coeffs):
        grid = row_grid(1.0, nx=2)
        with pytest.raises(ValueError):
            error_scan(grid, "magic", "oracle", coeffs)
        with pytest.raises(ValueError):
            error_scan(grid, "cr", "exact", coeffs)

    def test_cr_is_fine_at_y_2_5(self, coeffs, qspec):
        report = error_scan(row_grid(2.5), "cr", "oracle", coeffs, qspec)
        assert report.max_rel_error <= 1e-13

    def test_cr_fails_at_y_0_1(self, coeffs, qspec):
        report = error_scan(row_grid(0.1), "cr", "oracle", coeffs, qspec)
        assert report.max_rel_error >= 1e-2

    def test_refined_against_oracle_on_log_grid(self, coeffs, qspec):
        grid = GridSpec(x_min=0.01, x_max=15.0, y_min=1e-4, y_max=15.0,
                        nx=8, ny=8, spacing="logarithmic")
        report = error_scan(grid, "refined", "oracle", coeffs, qspec)
        assert report.max_rel_error <= 1e-9

    def test_single_point_against_refined_reference(self, coeffs):
        grid = GridSpec(x_min=1.0, x_max=1.0, y_min=1.0, y_max=1.0, nx=1, ny=1)
        report = error_scan(grid, "cr", "refined", coeffs)
        assert report.per_point is not None and len(report.per_point) == 1
        x, y, err = report.per_point[0]
        assert (x, y) == (1.0, 1.0)
        # gap between the two series at (1, 1) is ~2e-10 of the value
        assert 5e-11 < err < 1e-9
        assert report.max_rel_error == err
        assert report.argmax_point == (1.0, 1.0)

    def test_per_point_consistency_and_opt_out(self, coeffs):
        grid = GridSpec(x_min=0.5, x_max=5.0, y_min=0.5, y_max=5.0, nx=4, ny=3)
        report = error_scan(grid, "adaptive", "refined", coeffs)
        assert len(report.per_point) == 12
        assert report.max_rel_error == max(p[2] for p in report.per_point)

    def test_nan_error_is_the_maximum(self, coeffs):
        # (tau_m z)^2 overflows out here, so every node's error is NaN; a
        # NaN must not be reported as a zero maximum
        grid = GridSpec(x_min=1e307, x_max=1e308, y_min=1e-4, y_max=1e-4, nx=3, ny=1)
        report = error_scan(grid, "cr", "refined", coeffs)
        assert all(math.isnan(err) for _, _, err in report.per_point)
        assert math.isnan(report.max_rel_error)
        assert report.argmax_point == (1e307, 1e-4)

    def test_error_envelope_shrinks_with_y(self, coeffs, qspec):
        # max row error of the pole sum is nonincreasing in y; below the
        # oracle comparison floor the rows are clamped before comparing
        floor = 1e-12
        maxima = []
        for y in (0.1, 0.5, 1.0, 2.5, 5.0):
            report = error_scan(row_grid(y, nx=10), "cr", "oracle", coeffs, qspec)
            maxima.append(max(report.max_rel_error, floor))
        for previous, current in zip(maxima, maxima[1:]):
            assert current <= previous * 1.1

    def test_convergence_failure_is_tagged_with_node(self, coeffs):
        starved = QuadratureSpec(max_subdivisions=4)
        with pytest.raises(ConvergenceError, match="x="):
            error_scan(row_grid(1.0, nx=2), "cr", "oracle", coeffs, starved)

    @pytest.mark.parametrize("grid", [
        row_grid(1.0),  # its small-x nodes converge: the node named is not its first
        GridSpec(x_min=-1.0, x_max=15.0, y_min=0.5, y_max=20.0, nx=9, ny=2),
        GridSpec(x_min=-15.0, x_max=15.0, y_min=1e-4, y_max=1e-4, nx=7, ny=1),
    ], ids=["log_row", "two_rows", "negative_x"])
    def test_convergence_failure_names_the_per_node_loops_node(self, grid, coeffs):
        # 40 panels a level: |x| <= 1 converges on 33, larger |x| needs 66
        # or more. The scan must name the node at which evaluating the
        # nodes one by one, in scan order, stops first.
        starved = QuadratureSpec(max_subdivisions=40)
        want = None
        for y in grid.y_nodes():
            for x in grid.x_nodes():
                try:
                    w_quadrature(complex(x, y), starved)
                except ConvergenceError as exc:
                    want = f"reference failed to converge at x={x!r}, y={y!r}: {exc}"
                    break
            if want is not None:
                break
        assert want is not None
        with pytest.raises(ConvergenceError) as caught:
            error_scan(grid, "cr", "oracle", coeffs, starved)
        assert str(caught.value) == want

    def test_oracle_is_integrated_one_row_at_a_time(self, coeffs, qspec, monkeypatch):
        grid = GridSpec(x_min=0.01, x_max=15.0, y_min=1e-3, y_max=15.0, nx=6, ny=4,
                        spacing="logarithmic")
        want = error_scan(grid, "cr", "oracle", coeffs, qspec)
        rows = []
        quadrature_row = analysis._quadrature_row

        def counting_row(xs, y, spec):
            rows.append((list(xs), y))
            return quadrature_row(xs, y, spec)

        # w_quadrature integrates through oracle's own name: a scan that fell
        # back to one w_quadrature per node would show here as extra rows
        monkeypatch.setattr(analysis, "_quadrature_row", counting_row)
        monkeypatch.setattr(oracle, "_quadrature_row", counting_row)
        assert error_scan(grid, "cr", "oracle", coeffs, qspec) == want
        assert rows == [(grid.x_nodes(), y) for y in grid.y_nodes()]


class TestBench:
    def test_rejects_bad_arguments(self, coeffs):
        with pytest.raises(ValueError):
            measure_throughput("warp", 10_000, 1, coeffs)
        with pytest.raises(ValueError):
            measure_throughput("cr", 9_999, 1, coeffs)
        with pytest.raises(ValueError):
            bench_points("nowhere", 10, 1)

    def test_regions(self):
        for z in bench_points("full", 2_000, 3):
            assert 0.0 <= z.real < 15.0 and 0.0 < z.imag <= 15.0
        for z in bench_points("low_y", 2_000, 3):
            assert 0.0 < z.imag < 1.0
        for z in bench_points("high_y", 2_000, 3):
            assert 1.0 <= z.imag < 15.0

    def test_points_are_deterministic(self):
        assert bench_points("full", 1_000, 42) == bench_points("full", 1_000, 42)
        assert bench_points("full", 1_000, 42) != bench_points("full", 1_000, 43)

    def test_checksum_determinism(self, coeffs):
        a = measure_throughput("cr", 10_000, 7, coeffs)
        b = measure_throughput("cr", 10_000, 7, coeffs)
        assert a.checksum == b.checksum
        assert a.points_evaluated == b.points_evaluated == 10_000

    def test_report_invariants(self, coeffs):
        report = measure_throughput("adaptive_high_y", 10_000, 11, coeffs)
        assert report.wall_time > 0
        assert report.throughput == report.points_evaluated / report.wall_time

    def test_adaptive_checksum_matches_refined_on_low_y_points(self, coeffs):
        report = measure_throughput("adaptive_low_y", 10_000, 42, coeffs)
        manual = 0.0
        for z in bench_points("low_y", 10_000, 42):
            v = w_refined(z, coeffs)
            manual += v.real + v.imag
        assert rel_error(report.checksum, manual) <= 1e-12

    def test_pole_sum_outruns_refined_series(self, coeffs):
        fast, slow = interleaved_throughputs("cr", "refined", coeffs, total=100_000, batches=10)
        assert fast >= 1.2 * slow


class TestMethodRegistry:
    def test_every_name_agrees_with_cli_evaluate(self, coeffs):
        expected_path = {"refined": Path.REFINED, "cr": Path.COMMON_ONLY}
        grid = GridSpec(x_min=0.5, x_max=12.0, y_min=0.2, y_max=6.0, nx=4, ny=4)
        for name in analysis.SCAN_METHODS:
            report = error_scan(grid, name, "refined", coeffs)
            for x, y, err in report.per_point:
                z = complex(x, y)
                value, path = _evaluate(z, name, coeffs)
                ref = w_refined(z, coeffs)
                assert err == abs(value - ref) / abs(ref), (name, z)
                assert path is expected_path.get(name, w_adaptive(z, coeffs).path)
        for name in analysis.BENCH_METHODS:
            report = measure_throughput(name, 10_000, 3, coeffs)
            checksum = 0.0
            for z in bench_points(analysis.METHODS[name][1], 10_000, 3):
                value, path = _evaluate(z, name, coeffs)
                checksum += value.real + value.imag
                assert path is expected_path.get(name, w_adaptive(z, coeffs).path)
            assert report.checksum == checksum, name
        assert set(analysis.METHODS) == set(analysis.SCAN_METHODS + analysis.BENCH_METHODS)

    def test_kernels_are_looked_up_at_call_time(self, coeffs, monkeypatch):
        calls = []

        def counting(z, table):
            calls.append(z)
            return w_adaptive(z, table)

        monkeypatch.setattr(analysis, "w_adaptive", counting)
        grid = GridSpec(x_min=1.0, x_max=2.0, y_min=0.5, y_max=2.0, nx=2, ny=3)
        error_scan(grid, "adaptive", "refined", coeffs)
        assert len(calls) == 6

    def test_scan_and_bench_names_stay_apart(self, coeffs):
        grid = GridSpec(x_min=1.0, x_max=1.0, y_min=1.0, y_max=1.0, nx=1, ny=1)
        for name in ("adaptive_low_y", "adaptive_high_y"):
            with pytest.raises(ValueError, match="unknown method"):
                error_scan(grid, name, "refined", coeffs)
        with pytest.raises(ValueError, match="unknown method"):
            measure_throughput("adaptive", 10_000, 1, coeffs)
        assert analysis.SCAN_METHODS == ("refined", "cr", "adaptive")
        assert analysis.BENCH_METHODS == ("refined", "cr", "adaptive_low_y",
                                          "adaptive_high_y")
