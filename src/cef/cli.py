"""Command-line front end: point evaluation, reference-table reproduction,
error scans, and throughput benchmarks.

Exit codes: 0 success, 1 table check failure, 2 usage error, 3 numeric
failure (domain, overflow, or quadrature non-convergence).

Series parameters resolve in one place for every command: explicit flags
beat the CEF_DEFAULT_PARAMS environment variable (format
"tau_m,n_terms,y_switch"), which beats the built-in defaults (12, 23, 1).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys

from .analysis import (BENCH_METHODS, METHODS, MIN_BENCH_POINTS, SCAN_METHODS,
                       SCAN_REFERENCES, GridSpec, error_scan, measure_throughput)
from .coefficients import CoefficientTable, SeriesParams, build_coefficients
from .errors import ConvergenceError, DomainError
from .fixtures import CR_STATUS_LABELS, reference_rows
from .oracle import QuadratureSpec
from .plane import w_full_plane
from .series import w_cr, w_refined

__all__ = ["main", "format_sci"]

ENV_PARAMS = "CEF_DEFAULT_PARAMS"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

TABLE_CHECK_TOL = 1e-12


def format_sci(value: float) -> str:
    """Scientific notation with 15 decimals and a bare exponent,
    e.g. 1.167371250446503E-1 and 4.196286232960261E0. Non-finite values
    print as Python spells them (nan, inf, -inf)."""
    if not math.isfinite(value):
        return repr(value)
    mantissa, exponent = f"{value:.15E}".split("E")
    return f"{mantissa}E{int(exponent)}"


def _resolve_params(args: argparse.Namespace, parser: argparse.ArgumentParser) -> SeriesParams:
    tau_m, n_terms, y_switch = 12.0, 23, 1.0
    env = os.environ.get(ENV_PARAMS)
    if env:
        fields = env.split(",")
        if len(fields) != 3:
            parser.error(f"{ENV_PARAMS} must be 'tau_m,n_terms,y_switch', got {env!r}")
        try:
            tau_m, n_terms, y_switch = float(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            parser.error(f"{ENV_PARAMS} must be 'tau_m,n_terms,y_switch', got {env!r}")
    if args.tau_m is not None:
        tau_m = args.tau_m
    if args.n_terms is not None:
        n_terms = args.n_terms
    if args.y_switch is not None:
        y_switch = args.y_switch
    try:
        return SeriesParams(tau_m=tau_m, n_terms=n_terms, y_switch=y_switch)
    except ValueError as exc:
        parser.error(str(exc))


def _evaluate(z: complex, method: str, coeffs: CoefficientTable):
    """(value, path) for one point; non-native z always goes full-plane."""
    if z.imag > 0.0:
        return METHODS[method][0](z, coeffs)
    return w_full_plane(z, coeffs)


def cmd_eval(args: argparse.Namespace, coeffs: CoefficientTable,
             parser: argparse.ArgumentParser) -> int:
    z = complex(args.x, args.y)
    if not cmath.isfinite(z):
        raise DomainError(f"eval requires finite x and y, got z = {z!r}")
    value, path = _evaluate(z, args.method, coeffs)
    if not cmath.isfinite(value):
        raise OverflowError(f"w(z) at z = {z!r} overflowed to {value!r} in the "
                            f"{path} route")
    print(f"{format_sci(value.real)} {format_sci(value.imag)} {path}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace, coeffs: CoefficientTable,
              parser: argparse.ArgumentParser) -> int:
    rows = reference_rows()
    show_refined = args.method in (None, "refined")
    show_cr = args.method in (None, "cr")

    header = ["x", "y"]
    if show_refined:
        header += ["refined_re", "refined_im"]
    if show_cr:
        header += ["cr_re", "cr_im", "note"]
    print("  ".join(header))

    failures = []
    for row in rows:
        z = complex(row.x, row.y)
        computed_refined = w_refined(z, coeffs)
        computed_cr = w_cr(z, coeffs)
        cells = [f"{row.x:<5g}", f"{row.y:<5g}"]
        if show_refined:
            cells += [format_sci(computed_refined.real), format_sci(computed_refined.imag)]
        if show_cr:
            cells += [format_sci(computed_cr.real), format_sci(computed_cr.imag),
                      CR_STATUS_LABELS[row.cr_status]]
        print("  ".join(cells).rstrip())

        if args.check:
            for label, got, want in (("refined", computed_refined, row.refined),
                                     ("cr", computed_cr, row.cr)):
                for part, g, w in (("re", got.real, want.real), ("im", got.imag, want.imag)):
                    rel = abs(g - w) / abs(w)
                    if rel > TABLE_CHECK_TOL:
                        failures.append(
                            f"({row.x:g}, {row.y:g}) {label}.{part}: computed "
                            f"{format_sci(g)}, expected {format_sci(w)}, rel {rel:.3e}")

    if args.check:
        if failures:
            for line in failures:
                print(f"check failed: {line}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        print(f"check passed: all {2 * len(rows)} table cells within "
              f"{TABLE_CHECK_TOL:g} relative", file=sys.stderr)
    return EXIT_OK


def _report_as_dict(report) -> dict:
    return {
        "grid": {
            "x_min": report.grid.x_min, "x_max": report.grid.x_max,
            "y_min": report.grid.y_min, "y_max": report.grid.y_max,
            "nx": report.grid.nx, "ny": report.grid.ny,
            "spacing": report.grid.spacing,
        },
        "method": report.method,
        "reference": report.reference,
        "max_rel_error": report.max_rel_error,
        "argmax_point": list(report.argmax_point),
        "per_point": [list(p) for p in report.per_point or ()],
    }


def cmd_scan(args: argparse.Namespace, coeffs: CoefficientTable,
             parser: argparse.ArgumentParser) -> int:
    try:
        grid = GridSpec(x_min=args.x_min, x_max=args.x_max,
                        y_min=args.y_min, y_max=args.y_max,
                        nx=args.nx, ny=args.ny,
                        spacing="logarithmic" if args.log else "linear")
        spec = QuadratureSpec(tau_max=args.tau_max, abs_tol=args.abs_tol,
                              max_subdivisions=args.max_subdivisions)
    except ValueError as exc:
        parser.error(str(exc))
    report = error_scan(grid, args.method, args.reference, coeffs, spec)

    if args.format == "json":
        text = json.dumps(_report_as_dict(report), indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["x", "y", "rel_error"])
        for x, y, err in report.per_point:
            writer.writerow([repr(x), repr(y), repr(err)])
        text = buffer.getvalue()

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    ax, ay = report.argmax_point
    print(f"max_rel_error {report.max_rel_error:.6e} at x={ax:.6g}, y={ay:.6g}",
          file=sys.stderr)
    return EXIT_OK


def _bench_row(report) -> dict:
    return {
        "method": report.method,
        "points_evaluated": report.points_evaluated,
        "wall_time": report.wall_time,
        "throughput": report.throughput,
        "checksum": report.checksum,
    }


def cmd_bench(args: argparse.Namespace, coeffs: CoefficientTable,
              parser: argparse.ArgumentParser) -> int:
    if args.n < MIN_BENCH_POINTS:
        parser.error(f"--n must be at least {MIN_BENCH_POINTS}, got {args.n}")
    if args.compare:
        fast = measure_throughput("cr", args.n, args.seed, coeffs)
        slow = measure_throughput("refined", args.n, args.seed, coeffs)
        speedup = fast.throughput / slow.throughput
        if args.format == "json":
            payload = {"cr": _bench_row(fast), "refined": _bench_row(slow),
                       "speedup": speedup}
            print(json.dumps(payload, indent=2))
        else:
            _print_bench_csv([fast, slow], speedup)
        print(f"speedup {speedup:.2f}", file=sys.stderr)
        return EXIT_OK

    report = measure_throughput(args.method, args.n, args.seed, coeffs)
    if args.format == "json":
        print(json.dumps(_bench_row(report), indent=2))
    else:
        _print_bench_csv([report], None)
    return EXIT_OK


def _print_bench_csv(reports, speedup) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["method", "points_evaluated", "wall_time", "throughput", "checksum"]
    if speedup is not None:
        header.append("speedup")
    writer.writerow(header)
    for report in reports:
        row = [report.method, report.points_evaluated, repr(report.wall_time),
               repr(report.throughput), repr(report.checksum)]
        if speedup is not None:
            row.append(repr(speedup))
        writer.writerow(row)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cef",
        description="Complex error function w(z) via exponential-series "
                    "approximations, with an adaptive fast path for large Im z.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tau-m", type=float, default=None, dest="tau_m",
                        help="half-period of the cosine expansion (default 12)")
    common.add_argument("--n-terms", type=int, default=None, dest="n_terms",
                        help="number of series terms (default 23)")
    common.add_argument("--y-switch", type=float, default=None, dest="y_switch",
                        help="imaginary-part threshold of the adaptive kernel (default 1)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate w(x + iy) at one point")
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--y", type=float, required=True)
    p_eval.add_argument("--method", choices=list(SCAN_METHODS), default="adaptive")

    p_table = sub.add_parser("table", parents=[common],
                             help="reproduce the embedded reference table")
    p_table.add_argument("--method", choices=["refined", "cr"], default=None,
                         help="print only one series (default: both)")
    p_table.add_argument("--check", action="store_true",
                         help="compare against embedded values, exit 1 on mismatch")

    p_scan = sub.add_parser("scan", parents=[common],
                            help="map relative error of a method over a grid")
    p_scan.add_argument("--method", choices=list(SCAN_METHODS), default="adaptive")
    p_scan.add_argument("--reference", choices=list(SCAN_REFERENCES), default="oracle")
    p_scan.add_argument("--x-min", type=float, default=0.01)
    p_scan.add_argument("--x-max", type=float, default=15.0)
    p_scan.add_argument("--y-min", type=float, default=1e-4)
    p_scan.add_argument("--y-max", type=float, default=15.0)
    p_scan.add_argument("--nx", type=int, default=20)
    p_scan.add_argument("--ny", type=int, default=20)
    p_scan.add_argument("--log", action="store_true",
                        help="logarithmic node spacing on both axes")
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_scan.add_argument("--out", default=None, help="write report here instead of stdout")
    p_scan.add_argument("--tau-max", type=float, default=50.0, dest="tau_max")
    p_scan.add_argument("--abs-tol", type=float, default=1e-14, dest="abs_tol")
    p_scan.add_argument("--max-subdivisions", type=int, default=2 ** 16,
                        dest="max_subdivisions")

    p_bench = sub.add_parser("bench", parents=[common],
                             help="measure evaluation throughput")
    p_bench.add_argument("--method", choices=list(BENCH_METHODS), default="cr")
    p_bench.add_argument("--n", type=int, default=1_000_000)
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument("--format", choices=["csv", "json"], default="json")
    p_bench.add_argument("--compare", action="store_true",
                         help="run cr and refined on the same points and report speedup")
    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "table": cmd_table,
    "scan": cmd_scan,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params = _resolve_params(args, parser)
        coeffs = build_coefficients(params)
        return _COMMANDS[args.command](args, coeffs, parser)
    except (DomainError, OverflowError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
