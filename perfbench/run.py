"""Benchmark for the cef library: one workload per run, one closed-loop caller.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else. A run

1. reproduces the embedded reference table (``w_refined`` and ``w_cr``,
   the pole sum's documented failures included) at 1e-12 and exits 1 on a
   mismatch, before anything is timed;
2. generates the workload's work set from ``--seed`` (48 batches, see
   ``cefbench/inputs.py``), evaluates it once and checks every output
   against ``scipy.special.wofz`` (``cefbench/workloads.py``);
3. times ``import cef`` + ``build_coefficients`` in fresh interpreters;
4. with ``--trace 0``, calls the batches of the work set in a loop, one
   after the other, for ``--seconds`` seconds and reports the end-to-end
   metrics, with times corrected for the drifting speed of a shared host
   (``cefbench/hostspeed.py``); with ``--trace 1``, alternates untraced and
   traced passes over the whole work set for ``--seconds`` seconds and
   reports the per-layer metrics (``cefbench/tracing.py``).

Every timed batch must reproduce the outputs of the checked pass bit for
bit. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give provenance, checksums of the inputs and outputs, and the route counts.
A JSON record of the run (and, for a traced run, its spans) is written
under ``perfbench/out/``.

Exit codes: 0 result printed and correct, 1 table mismatch or an
incorrect result, 2 usage error or no ``src/cef`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one thread: set before numpy loads, so that its BLAS starts
# no thread pool to compete with the caller for the cores.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("voigt_profiles", "high_y", "full_plane", "oracle_scan")
SETUP_REPEATS = 9
TABLE_TOL = 1e-12

END_TO_END_UNITS = {
    "points_per_s": "points/s",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "accuracy_digits": "digits",
    "ok_frac": "ratio",
    "setup_s": "s",
    "setup_rss_mb": "MB",
}
LAYER_SPANS = (
    ("functions.voigt_k", "ns", False),
    ("series.w_adaptive", "ns", True),
    ("series.w_cr", "ns", True),
    ("series.refining_part", "ns", True),
    ("plane.w_full_plane", "ns", True),
    ("analysis.error_scan", "ns", False),
    ("oracle.w_quadrature", "us", True),
)
PER_LAYER_UNITS = {
    "package.import_ms": "ms",
    "coefficients.build_us": "us",
    **{f"{span}.self_{unit}": unit for span, unit, _ in LAYER_SPANS},
    **{f"{span}.calls": "count" for span, _, with_calls in LAYER_SPANS if with_calls},
    "route.common_only": "count",
    "route.full_decomposition": "count",
    "route.symmetry_extended": "count",
    "route.refined": "count",
    "route.exact_special_case": "count",
    "plane.overflow_raised": "count",
    "trace.overhead_frac": "ratio",
    "ref.scipy_wofz_ns": "ns",
}


class BenchmarkError(Exception):
    """The run cannot produce a result; carries the exit code."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_cef():
    """Import cef from this checkout's src/, refusing any other copy."""
    if not (SRC / "cef" / "__init__.py").is_file():
        raise BenchmarkError(f"no library to benchmark: {SRC / 'cef'} is missing", 2)
    sys.path.insert(0, str(SRC))
    import cef
    if Path(cef.__file__).resolve().parent != (SRC / "cef").resolve():
        raise BenchmarkError(f"imported cef from {cef.__file__}, not from {SRC}", 2)
    return cef


def check_reference_table(cef, table) -> None:
    """The paper's table at 1e-12 per component, pole-sum failures included."""
    from cef.fixtures import reference_rows
    mismatches = []
    for row in reference_rows():
        z = complex(row.x, row.y)
        for label, got, want in (("refined", cef.w_refined(z, table), row.refined),
                                 ("cr", cef.w_cr(z, table), row.cr)):
            for part, g, w in (("re", got.real, want.real), ("im", got.imag, want.imag)):
                if not abs(g - w) <= TABLE_TOL * abs(w):
                    mismatches.append(f"({row.x:g}, {row.y:g}) {label}.{part}: "
                                      f"computed {g!r}, table {w!r}")
    if mismatches:
        raise BenchmarkError("reference table check failed:\n  " + "\n  ".join(mismatches), 1)


def measure_setup(repeats: int, env: dict[str, str]) -> dict[str, float]:
    """Median import and build times and peak RSS over fresh interpreters.
    One unmeasured run first, so that bytecode compilation is not counted.
    ``setup_s`` is at reference host speed, like the batch times."""
    from cefbench import hostspeed
    probe = BENCH_DIR / "cefbench" / "setup_probe.py"
    samples = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, str(probe), str(SRC)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchmarkError(f"setup probe failed:\n{done.stderr}", 2)
        sample = json.loads(done.stdout.splitlines()[-1])
        if Path(sample["cef_file"]).resolve().parent != (SRC / "cef").resolve():
            raise BenchmarkError(f"setup probe imported cef from {sample['cef_file']}", 2)
        samples.append(sample)
    samples = samples[1:]
    reference = hostspeed.REFERENCE_NS["scalar"]
    return {
        "setup_s": statistics.median((s["import_s"] + s["build_s"]) * reference / s["kernel_ns"]
                                     for s in samples),
        "wall_setup_s": statistics.median(s["import_s"] + s["build_s"] for s in samples),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "build_s": statistics.median(s["build_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def run_pass(runner, cef, table, batches) -> list:
    return [runner(cef, table, batch) for batch in batches]


def timed_loop(runner, cef, table, batches, expected, seconds, kernel):
    """Call batches one after another for ``seconds``, each followed by the
    host-speed ``kernel``; return per-batch and per-kernel times (ns), points
    evaluated and batches whose outputs differed from the checked pass."""
    batch_ns, kernel_ns, points, mismatched = [], [], 0, 0
    gc.collect()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    i = 0
    while clock() < deadline:
        k = i % len(batches)
        t0 = clock()
        out = runner(cef, table, batches[k])
        t1 = clock()
        kernel()
        t2 = clock()
        batch_ns.append(t1 - t0)
        kernel_ns.append(t2 - t1)
        points += len(out)
        mismatched += pickle.dumps(out, protocol=4) != expected[k]
        i += 1
    return batch_ns, kernel_ns, points, mismatched


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(runner, cef, table, batches, expected, seconds, verdict, setup, workload):
    """Timings are at reference host speed (see cefbench/hostspeed.py); the
    raw wall-clock figures go into the details."""
    from cefbench import hostspeed, workloads
    kind = workloads.HOST_KERNEL[workload]
    batch_ns, kernel_ns, points, mismatched = timed_loop(
        runner, cef, table, batches, expected, seconds, hostspeed.KERNELS[kind])
    if len(batch_ns) < 100:
        print(f"warning: only {len(batch_ns)} batches timed; p90 has fewer than "
              "10 batches beyond it", file=sys.stderr)
    times = hostspeed.corrected(batch_ns, kernel_ns, kind)
    metrics = {
        "points_per_s": points / (sum(times) * 1e-9),
        "batch_ms_p50": statistics.median(times) * 1e-6,
        "batch_ms_p90": percentile(times, 90) * 1e-6,
        "accuracy_digits": verdict.accuracy_digits,
        "ok_frac": verdict.ok_frac,
        "setup_s": setup["setup_s"],
        "setup_rss_mb": setup["peak_rss_mb"],
    }
    wall = {
        "points_per_s": points / (sum(batch_ns) * 1e-9),
        "batch_ms_p50": statistics.median(batch_ns) * 1e-6,
        "batch_ms_p90": percentile(batch_ns, 90) * 1e-6,
        "host_kernel_ms_p50": statistics.median(kernel_ns) * 1e-6,
    }
    return metrics, {"batches_timed": len(batch_ns), "points_timed": points,
                     "batches_mismatched": mismatched, "wall_clock": wall,
                     "batch_ns": batch_ns, "kernel_ns": kernel_ns}


def per_layer(runner, cef, table, batches, expected, seconds, setup, workload):
    """Alternate untraced and traced passes over the work set. Counts come
    from the first traced pass and must repeat exactly on every later one."""
    from cefbench import inputs
    from cefbench.tracing import ROUTES, Tracer
    tracer = Tracer()
    plain_ns, traced_ns, self_ns, counts = [], [], {}, []
    mismatched = 0
    deadline = time.perf_counter() + seconds
    while not traced_ns or time.perf_counter() < deadline:
        for traced in (False, True):
            gc.collect()
            t0 = time.perf_counter_ns()
            if traced:
                with tracer.installed(cef):
                    outputs = run_pass(runner, cef, table, batches)
            else:
                outputs = run_pass(runner, cef, table, batches)
            (traced_ns if traced else plain_ns).append(time.perf_counter_ns() - t0)
            mismatched += sum(pickle.dumps(out, protocol=4) != want
                              for out, want in zip(outputs, expected))
        totals = tracer.layer_totals()
        counts.append(({n: c for n, (c, _) in totals.items()},
                       dict(tracer.routes), tracer.overflow_raised))
        for span, (calls, total_self) in totals.items():
            self_ns.setdefault(span, []).append(total_self / calls if calls else 0.0)

    calls, routes, overflow_raised = counts[0]
    points = [z for batch in batches for z in inputs.points_of(workload, batch)]
    metrics = {
        "package.import_ms": setup["import_s"] * 1e3,
        "coefficients.build_us": setup["build_s"] * 1e6,
    }
    for span, unit, with_calls in LAYER_SPANS:
        scale = 1e-3 if unit == "us" else 1.0
        metrics[f"{span}.self_{unit}"] = statistics.median(self_ns[span]) * scale
        if with_calls:
            metrics[f"{span}.calls"] = calls[span]
    for route in ROUTES:
        metrics[f"route.{route}"] = routes.get(route, 0)
    metrics["plane.overflow_raised"] = overflow_raised
    metrics["trace.overhead_frac"] = statistics.median(traced_ns) / statistics.median(plain_ns) - 1.0
    metrics["ref.scipy_wofz_ns"] = wofz_ns_per_point(points)
    details = {"passes": len(traced_ns), "counts_repeat": all(c == counts[0] for c in counts),
               "batches_mismatched": mismatched, "routes": routes,
               "calls": calls}
    return metrics, details, tracer


def wofz_ns_per_point(points: list[complex], repeats: int = 5) -> float:
    """scipy.special.wofz on the same points, as an external yardstick."""
    import numpy as np
    from scipy.special import wofz
    z = np.array(points, dtype=complex)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        wofz(z)
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples) / len(points)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, cef, table) -> dict:
    import mpmath
    import numpy
    import scipy
    params = table.params
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "series_params": {"tau_m": params.tau_m, "n_terms": params.n_terms,
                          "y_switch": params.y_switch},
        "git_commit": git_commit(), "cef_version": cef.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def benchmark(args, user_env: dict[str, str]) -> tuple[dict, int]:
    """Run one workload. ``user_env`` is the environment the set-up probes
    get: the caller's, as a user's import would see it."""
    cef = import_cef()
    from cefbench import inputs, workloads
    table = cef.build_coefficients(cef.SeriesParams())
    check_reference_table(cef, table)

    batches = inputs.GENERATORS[args.workload](args.seed)
    runner = workloads.RUNNERS[args.workload]
    outputs = run_pass(runner, cef, table, batches)
    expected = [pickle.dumps(out, protocol=4) for out in outputs]
    verdict = workloads.check(args.workload, cef, table, batches, outputs)
    setup = measure_setup(SETUP_REPEATS, user_env)

    tracer = None
    if args.trace:
        metrics, details, tracer = per_layer(runner, cef, table, batches, expected,
                                             args.seconds, setup, args.workload)
        units = PER_LAYER_UNITS
    else:
        metrics, details = end_to_end(runner, cef, table, batches, expected,
                                      args.seconds, verdict, setup, args.workload)
        units = END_TO_END_UNITS
    repeatable = details["batches_mismatched"] == 0 and details.get("counts_repeat", True)
    correct = not verdict.unexpected_failures and repeatable

    record = {
        "provenance": provenance(args, cef, table),
        "input_sha256": inputs.checksum(args.workload, batches),
        "output_sha256": hashlib.sha256(b"".join(expected)).hexdigest(),
        "check": {"attempted": verdict.attempted, "failed": verdict.failed,
                  "failed_frac": verdict.failed / verdict.attempted,
                  "point_bound": workloads.BOUNDS[args.workload],
                  "unexpected_failures": verdict.unexpected_failures[:20]},
        "details": {**details, "wall_setup_s": setup["wall_setup_s"]},
        "result": {
            "correct": correct, "attempted": verdict.attempted, "failed": verdict.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.json.gz"))

    for failure in verdict.unexpected_failures[:20]:
        print(f"unexpected failure: {failure}", file=sys.stderr)
    if not repeatable:
        print("outputs or counts differed between passes over the same inputs",
              file=sys.stderr)
    return record, 0 if correct else 1


def report(record: dict) -> None:
    """Human-readable lines first, the result object last."""
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"input_sha256 {record['input_sha256']}")
    print(f"output_sha256 {record['output_sha256']}")
    check = record["check"]
    print(f"check attempted={check['attempted']} failed={check['failed']} "
          f"failed_frac={check['failed_frac']!r} point_bound={check['point_bound']:g}")
    details = record["details"]
    if "routes" in details:
        print("routes " + json.dumps(details["routes"], sort_keys=True))
    for name, value in details.get("wall_clock", {}).items():
        print(f"wall_clock.{name} {value!r}")
    print(f"wall_clock.setup_s {details['wall_setup_s']!r}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(record["result"]))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    user_env = dict(os.environ)
    os.environ.update(SINGLE_THREAD)
    try:
        record, code = benchmark(args, user_env)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    report(record)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
