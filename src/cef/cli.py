"""Command-line front end: point evaluation, reference-table reproduction,
error scans, and throughput benchmarks.

Exit codes: 0 success, 1 table check failure, 2 usage error, 3 numeric
failure (domain, overflow, or quadrature non-convergence).

The series flags of every command and ``scan``'s grid and quadrature flags
are the fields of SeriesParams, GridSpec and QuadratureSpec. The parser holds
no default, so a flag not given leaves the record's: the CLI and the library
cannot disagree. Flags beat the CEF_DEFAULT_PARAMS environment variable
(format "tau_m,n_terms,y_switch"), which beats the SeriesParams defaults.
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
                       SCAN_REFERENCES, GridSpec, error_scan,
                       measure_throughput)
from .coefficients import CoefficientTable, SeriesParams, _Record, build_coefficients
from .errors import ConvergenceError, DomainError
from .oracle import QuadratureSpec
from .plane import w_full_plane

__all__ = ["main", "format_sci"]

ENV_PARAMS = "CEF_DEFAULT_PARAMS"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

TABLE_CHECK_TOL = 1e-12
# the series `cef table` reproduces, in column order: ReferenceRow fields, METHODS names
TABLE_SERIES = ("refined", "cr")


def format_sci(value: float) -> str:
    """Scientific notation with 15 decimals and a bare exponent,
    e.g. 1.167371250446503E-1 and 4.196286232960261E0. Non-finite values
    print as Python spells them (nan, inf, -inf)."""
    if not math.isfinite(value):
        return repr(value)
    mantissa, exponent = f"{value:.15E}".split("E")
    return f"{mantissa}E{int(exponent)}"


def _resolve_params(args: argparse.Namespace, parser: argparse.ArgumentParser) -> SeriesParams:
    """Flags, then CEF_DEFAULT_PARAMS, then the SeriesParams defaults. Each
    environment field is parsed by the type of that field's default. Only
    the values given reach SeriesParams, so an invalid environment field
    that a flag overrides is never validated."""
    names = SeriesParams._fields
    values = {}
    env = os.environ.get(ENV_PARAMS)
    if env:
        try:
            values = {name: type(getattr(SeriesParams, name))(item) for name, item
                      in zip(names, env.split(","), strict=True)}
        except ValueError:
            parser.error(f"{ENV_PARAMS} must be '{','.join(names)}', got {env!r}")
    values.update({name: value for name, value in vars(args).items() if name in names})
    try:
        return SeriesParams(**values)
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
    # the published table loads for this command only
    from .fixtures import CR_STATUS_LABELS, reference_rows
    rows = reference_rows()
    shown = [name for name in TABLE_SERIES if args.method in (None, name)]
    note = ["note"] if "cr" in shown else []
    print("  ".join(["x", "y", *(f"{name}_{part}" for name in shown
                                 for part in ("re", "im")), *note]))

    failures = []
    for row in rows:
        z = complex(row.x, row.y)
        cells = [f"{row.x:<5g}", f"{row.y:<5g}"]
        for name in TABLE_SERIES:
            got, want = METHODS[name][0](z, coeffs)[0], getattr(row, name)
            for part, g, w in (("re", got.real, want.real), ("im", got.imag, want.imag)):
                if name in shown:
                    cells.append(format_sci(g))
                if args.check and (rel := abs(g - w) / abs(w)) > TABLE_CHECK_TOL:
                    failures.append(
                        f"({row.x:g}, {row.y:g}) {name}.{part}: computed "
                        f"{format_sci(g)}, expected {format_sci(w)}, rel {rel:.3e}")
        if note:
            cells.append(CR_STATUS_LABELS[row.cr_status])
        print("  ".join(cells).rstrip())

    if args.check:
        if failures:
            for line in failures:
                print(f"check failed: {line}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        print(f"check passed: all {2 * len(rows)} table cells within "
              f"{TABLE_CHECK_TOL:g} relative", file=sys.stderr)
    return EXIT_OK


def _json_text(payload) -> str:
    """Strict JSON (RFC 8259): non-finite numbers are written as null. A
    record is written as the dict of its fields."""
    def finite(value):
        if isinstance(value, _Record):
            value = dict(zip(value._fields, value._values()))
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {key: finite(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(item) for item in value]
        return value
    return json.dumps(finite(payload), indent=2, allow_nan=False)


def cmd_scan(args: argparse.Namespace, coeffs: CoefficientTable,
             parser: argparse.ArgumentParser) -> int:
    given = vars(args) | {"spacing": "logarithmic" if args.log else "linear"}
    try:
        grid, spec = (kind(**{name: given[name] for name in kind._fields if name in given})
                      for kind in (GridSpec, QuadratureSpec))
    except ValueError as exc:
        parser.error(str(exc))
    report = error_scan(grid, args.method, args.reference, coeffs, spec)

    if args.format == "json":
        text = _json_text(report._asdict()) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["x", "y", "rel_error"])
        writer.writerows(map(repr, point) for point in report.per_point)
        text = buffer.getvalue()

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            parser.exit(EXIT_USAGE, f"error: cannot write the report: {exc}\n")
    else:
        sys.stdout.write(text)
    ax, ay = report.argmax_point
    print(f"max_rel_error {report.max_rel_error:.6e} at x={ax:.6g}, y={ay:.6g}",
          file=sys.stderr)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace, coeffs: CoefficientTable,
              parser: argparse.ArgumentParser) -> int:
    if args.n < MIN_BENCH_POINTS:
        parser.error(f"--n must be at least {MIN_BENCH_POINTS}, got {args.n}")
    methods = ("cr", "refined") if args.compare else (args.method,)
    reports = [measure_throughput(method, args.n, args.seed, coeffs)._asdict()
               for method in methods]
    payload, extra = reports[0], {}
    if args.compare:
        extra = {"speedup": reports[0]["throughput"] / reports[1]["throughput"]}
        payload = {report["method"]: report for report in reports} | extra

    if args.format == "json":
        print(_json_text(payload))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([*reports[0], *extra])
        writer.writerows([*report.values(), *extra.values()] for report in reports)
    if extra:
        print(f"speedup {extra['speedup']:.2f}", file=sys.stderr)
    return EXIT_OK


def _add_spec_flags(parser: argparse.ArgumentParser, spec: type) -> None:
    """One --flag per field of ``spec``, in field order, typed by its default,
    which only the help names; GridSpec.spacing is left to --log."""
    for name in spec._fields:
        if name != "spacing":
            default = getattr(spec, name)
            parser.add_argument(f"--{name.replace('_', '-')}", type=type(default),
                                default=argparse.SUPPRESS, help=f"default {default:g}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cef",
        description="Complex error function w(z) via exponential-series "
                    "approximations, with an adaptive fast path for large Im z.")
    common = argparse.ArgumentParser(add_help=False)
    _add_spec_flags(common, SeriesParams)

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate w(x + iy) at one point")
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--y", type=float, required=True)
    p_eval.add_argument("--method", choices=list(SCAN_METHODS), default="adaptive")
    p_eval.set_defaults(run=cmd_eval)

    p_table = sub.add_parser("table", parents=[common],
                             help="reproduce the embedded reference table")
    p_table.add_argument("--method", choices=list(TABLE_SERIES), default=None,
                         help="print only one series (default: both)")
    p_table.add_argument("--check", action="store_true",
                         help="compare against embedded values, exit 1 on mismatch")
    p_table.set_defaults(run=cmd_table)

    p_scan = sub.add_parser("scan", parents=[common],
                            help="map relative error of a method over a grid")
    p_scan.add_argument("--method", choices=list(SCAN_METHODS), default="adaptive")
    p_scan.add_argument("--reference", choices=list(SCAN_REFERENCES), default="oracle")
    _add_spec_flags(p_scan, GridSpec)
    p_scan.add_argument("--log", action="store_true",
                        help="logarithmic node spacing on both axes")
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_scan.add_argument("--out", default=None, help="write report here instead of stdout")
    _add_spec_flags(p_scan, QuadratureSpec)
    p_scan.set_defaults(run=cmd_scan)

    p_bench = sub.add_parser("bench", parents=[common],
                             help="measure evaluation throughput")
    p_bench.add_argument("--method", choices=list(BENCH_METHODS), default="cr")
    p_bench.add_argument("--n", type=int, default=1_000_000)
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument("--format", choices=["csv", "json"], default="json")
    p_bench.add_argument("--compare", action="store_true",
                         help="run cr and refined on the same points and report speedup")
    p_bench.set_defaults(run=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params = _resolve_params(args, parser)
        coeffs = build_coefficients(params)
        return args.run(args, coeffs, parser)
    except (ValueError, OverflowError, ConvergenceError) as exc:  # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
