"""Tests of the benchmark itself: its inputs, its correctness check, and the
agreement between BENCHMARK.json and what the command prints."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from cefbench import inputs, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cef():
    return run.import_cef()


@pytest.fixture(scope="module")
def table(cef):
    return cef.build_coefficients(cef.SeriesParams())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    generate = inputs.GENERATORS[workload]
    first, again, other = generate(7), generate(7), generate(8)
    assert first == again
    assert inputs.checksum(workload, first) == inputs.checksum(workload, again)
    assert inputs.checksum(workload, first) != inputs.checksum(workload, other)
    assert len(first) == inputs.BATCHES


def test_full_plane_composition():
    batch = inputs.full_plane(3)[0]
    on_axis = [z for z in batch if z.imag == 0.0]
    probes = [z for z in batch if workloads.in_known_defect_region(z)]
    assert len(batch) == inputs.POINTS_PER_BATCH
    assert 0j in batch and len(on_axis) >= inputs.AXIS_POINTS
    assert max(abs(z) for z in probes) > 1e154 and min(abs(z) for z in probes) < 1e-18
    assert {(z.real > 0, z.imag > 0) for z in batch} == {(a, b) for a in (0, 1) for b in (0, 1)}


def test_correct_kernel_passes_the_check(cef, table):
    batches = inputs.voigt_profiles(5)[:3]
    outputs = run.run_pass(workloads.run_voigt_profiles, cef, table, batches)
    verdict = workloads.check("voigt_profiles", cef, table, batches, outputs)
    assert verdict.failed == 0 and verdict.accuracy_digits > 9


def test_pole_sum_on_the_low_y_route_registers_as_failed(cef, table, monkeypatch):
    """The paper's documented failure: the pole sum alone below y = 1."""
    def pole_sum_only(z, coeffs):
        return cef.EvaluationOutcome(cef.w_cr(z, coeffs), cef.Path.FULL_DECOMPOSITION)

    monkeypatch.setattr(cef.functions, "w_adaptive", pole_sum_only)
    batches = inputs.voigt_profiles(5)[:3]
    outputs = run.run_pass(workloads.run_voigt_profiles, cef, table, batches)
    verdict = workloads.check("voigt_profiles", cef, table, batches, outputs)
    assert verdict.failed > 0 and verdict.ok_frac < 1.0
    assert verdict.unexpected_failures


def test_missing_overflow_error_is_a_failure():
    z = complex(1e160, -1e161)
    assert workloads.must_overflow(z)
    assert workloads._point_error("full_plane", z, complex("nan+nanj"), 0j) == float("inf")
    assert workloads._point_error("full_plane", z, "OverflowError", 0j) == 0.0


def test_traced_counts_repeat_exactly(cef, table):
    from cefbench.tracing import Tracer
    batches = inputs.full_plane(2)[:2]
    tracer = Tracer()
    counts = []
    for _ in range(2):
        with tracer.installed(cef):
            run.run_pass(workloads.run_full_plane, cef, table, batches)
        counts.append((tracer.layer_totals(), dict(tracer.routes), tracer.overflow_raised))
    assert cef.w_full_plane.__name__ == "w_full_plane"  # originals restored
    (totals, routes, overflow_raised), again = counts
    assert [c for c, _ in totals.values()] == [c for c, _ in again[0].values()]
    assert routes == again[1] and overflow_raised == again[2]
    points = 2 * inputs.POINTS_PER_BATCH
    assert sum(routes.values()) + overflow_raised == points
    assert totals["plane.w_full_plane"][0] > points
    assert totals["oracle.w_quadrature"][0] == 0


def test_table_mismatch_aborts(cef, table, monkeypatch):
    monkeypatch.setattr(cef, "w_cr", cef.w_refined)
    with pytest.raises(run.BenchmarkError) as caught:
        run.check_reference_table(cef, table)
    assert caught.value.code == 1


def test_spec_names_match_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_of_the_spec(trace, section):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "high_y", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    if trace:
        assert result["metrics"]["series.refining_part.calls"]["value"] == 0
        assert result["metrics"]["oracle.w_quadrature.calls"]["value"] == 0
