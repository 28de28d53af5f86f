"""Command-line interface, exercised through subprocesses."""

import argparse
import csv
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

import cef
from cef import GridSpec, QuadratureSpec, SeriesParams
from cef.cli import _build_parser, _resolve_params, format_sci
from cef.fixtures import reference_rows
from conftest import rel_error

ROWS = {(row.x, row.y): row for row in reference_rows()}

# mpmath (60 digits): w(pi / 12 + 0i)
W_LATTICE_1 = complex(0.933757118080976, 0.28227388511512774)

SCI_RE = re.compile(r"^-?\d\.\d{15}E-?\d+$")

# `cef table` stdout at the default parameters, captured verbatim: the
# header, the column order and every printed digit are part of the CLI contract
TABLE_STDOUT = {
    (): """\
x  y  refined_re  refined_im  cr_re  cr_im  note
0.01   0.01   9.887176929549548E-1  1.108529605747723E-2  4.196286232960261E0  4.137187541585457E0  inaccurate
0.1    0.1    8.884785624756437E-1  9.433165105728503E-2  7.590865094856969E-1  2.042540773419455E-1  inaccurate
0.5    0.5    5.331567079121748E-1  2.304882313844584E-1  5.331626469616390E-1  2.304774733809672E-1  inaccurate (reduced precision)
1      1      3.047442052569126E-1  2.082189382028317E-1  3.047442051814128E-1  2.082189382021633E-1  slightly reduced precision
2.5    2.5    1.167371250446503E-1  1.079085859964814E-1  1.167371250446503E-1  1.079085859964814E-1
5      5      5.696543988817698E-2  5.583874277539103E-2  5.696543988817697E-2  5.583874277539101E-2
7.5    7.5    3.777752935845999E-2  3.744329372959512E-2  3.777752935846000E-2  3.744329372959514E-2
10     10     2.827946745423245E-2  2.813843327633690E-2  2.827946745423246E-2  2.813843327633690E-2
12.5   12.5   2.260351678541391E-2  2.253130329137736E-2  2.260351678541391E-2  2.253130329137735E-2
15     15     1.882714532513675E-2  1.878535427799564E-2  1.882714532513676E-2  1.878535427799565E-2
""",
    ("--method", "cr"): """\
x  y  cr_re  cr_im  note
0.01   0.01   4.196286232960261E0  4.137187541585457E0  inaccurate
0.1    0.1    7.590865094856969E-1  2.042540773419455E-1  inaccurate
0.5    0.5    5.331626469616390E-1  2.304774733809672E-1  inaccurate (reduced precision)
1      1      3.047442051814128E-1  2.082189382021633E-1  slightly reduced precision
2.5    2.5    1.167371250446503E-1  1.079085859964814E-1
5      5      5.696543988817697E-2  5.583874277539101E-2
7.5    7.5    3.777752935846000E-2  3.744329372959514E-2
10     10     2.827946745423246E-2  2.813843327633690E-2
12.5   12.5   2.260351678541391E-2  2.253130329137735E-2
15     15     1.882714532513676E-2  1.878535427799565E-2
""",
    ("--method", "refined"): """\
x  y  refined_re  refined_im
0.01   0.01   9.887176929549548E-1  1.108529605747723E-2
0.1    0.1    8.884785624756437E-1  9.433165105728503E-2
0.5    0.5    5.331567079121748E-1  2.304882313844584E-1
1      1      3.047442052569126E-1  2.082189382028317E-1
2.5    2.5    1.167371250446503E-1  1.079085859964814E-1
5      5      5.696543988817698E-2  5.583874277539103E-2
7.5    7.5    3.777752935845999E-2  3.744329372959512E-2
10     10     2.827946745423245E-2  2.813843327633690E-2
12.5   12.5   2.260351678541391E-2  2.253130329137736E-2
15     15     1.882714532513675E-2  1.878535427799564E-2
""",
}

# option strings of `cef scan`, in order; the grid and quadrature flags are
# the GridSpec and QuadratureSpec fields
SCAN_OPTIONS = [
    "-h", "--help", "--tau-m", "--n-terms", "--y-switch", "--method", "--reference",
    "--x-min", "--x-max", "--y-min", "--y-max", "--nx", "--ny", "--log", "--format",
    "--out", "--tau-max", "--abs-tol", "--max-subdivisions",
]


def run_cli(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("CEF_DEFAULT_PARAMS", None)
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(cef.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "cef", *args],
                          capture_output=True, text=True, env=env)


def parse_eval_output(stdout: str) -> tuple[complex, str]:
    re_part, im_part, path = stdout.split()
    return complex(float(re_part), float(im_part)), path


class TestFormat:
    def test_matches_published_style(self):
        assert format_sci(1.167371250446503e-1) == "1.167371250446503E-1"
        assert format_sci(4.196286232960261e0) == "4.196286232960261E0"
        assert format_sci(1.0) == "1.000000000000000E0"
        assert format_sci(0.0) == "0.000000000000000E0"
        assert format_sci(-2.827946745423245e-2) == "-2.827946745423245E-2"

    def test_non_finite_values(self):
        assert format_sci(math.nan) == "nan"
        assert format_sci(math.inf) == "inf"
        assert format_sci(-math.inf) == "-inf"

    def test_round_trip_is_digit_limited(self):
        # 15 decimals = 16 significant digits; exact round-trip needs 17,
        # so the reparse error is bounded by half a decimal step, which is
        # at most ~4.5 binary ulp (decimal mantissa near 1, binary near 2)
        rng = random.Random(41)
        for _ in range(1_000):
            value = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)
            parsed = float(format_sci(value))
            assert abs(parsed - value) <= 5 * math.ulp(abs(value))


class TestEval:
    def test_refined_at_reference_row(self):
        proc = run_cli("eval", "--x", "7.5", "--y", "7.5", "--method", "refined")
        assert proc.returncode == 0, proc.stderr
        value, path = parse_eval_output(proc.stdout)
        assert path == "refined"
        want = ROWS[(7.5, 7.5)].refined
        assert rel_error(value.real, want.real) <= 1e-12
        assert rel_error(value.imag, want.imag) <= 1e-12
        for token in proc.stdout.split()[:2]:
            assert SCI_RE.match(token), token

    def test_origin(self):
        proc = run_cli("eval", "--x", "0", "--y", "0")
        assert proc.returncode == 0
        assert proc.stdout.split() == [
            "1.000000000000000E0", "0.000000000000000E0", "refined"]

    def test_lower_half_plane_reflection(self):
        proc = run_cli("eval", "--x", "1", "--y", "-1")
        assert proc.returncode == 0
        value, path = parse_eval_output(proc.stdout)
        assert path == "symmetry_extended"
        # mpmath: w(1 - 1j)
        assert rel_error(value, complex(-1.1370378783511974, 2.026813791854195)) <= 1e-9
        assert proc.stdout.startswith("-1.1370378")
        assert proc.stdout.split()[1].startswith("2.0268137")

    def test_negative_real_axis_removable_point(self):
        # tau_m x = -pi: the real-axis series divided by zero before the fold
        proc = run_cli("eval", "--x", "-0.2617993877991494", "--y", "0")
        assert proc.returncode == 0, proc.stderr
        value, path = parse_eval_output(proc.stdout)
        assert path == "symmetry_extended"
        assert rel_error(value, W_LATTICE_1.conjugate()) <= 1e-13

    def test_near_origin_is_not_zero(self):
        # at |z| = 1e-20, 1 - e^{i tau_m z} in the lead term rounds to 0
        proc = run_cli("eval", "--x", "0", "--y", "1e-20")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[0] == "1.000000000000000E0"

    def test_removable_point_just_above_the_axis(self):
        # tau_m x = pi at y = 1e-300, a removable point of the series
        proc = run_cli("eval", "--x", "0.2617993877991494", "--y", "1e-300")
        assert proc.returncode == 0, proc.stderr
        value, _ = parse_eval_output(proc.stdout)
        assert rel_error(value, W_LATTICE_1) <= 1e-13

    def test_adaptive_path_reported(self):
        proc = run_cli("eval", "--x", "0.5", "--y", "0.5")
        assert proc.returncode == 0
        assert parse_eval_output(proc.stdout)[1] == "full_decomposition"
        proc = run_cli("eval", "--x", "5", "--y", "5")
        assert parse_eval_output(proc.stdout)[1] == "common_only"

    def test_numeric_failure_exit_code(self):
        proc = run_cli("eval", "--x", "1", "--y", "-30")  # reflection overflow
        assert proc.returncode == 3
        assert "error" in proc.stderr.lower()
        proc = run_cli("eval", "--x", "nan", "--y", "1")
        assert proc.returncode == 3
        assert "requires finite x and y" in proc.stderr
        assert "(nan+1j)" in proc.stderr
        # tau_m z squared overflows in the pole sum
        proc = run_cli("eval", "--x", "1e300", "--y", "1e300", "--method", "cr")
        assert proc.returncode == 3
        assert "(1e+300+1e+300j)" in proc.stderr
        assert "overflowed" in proc.stderr
        assert "unpack" not in proc.stderr

    def test_far_field_takes_the_continued_fraction(self):
        proc = run_cli("eval", "--x", "1e300", "--y", "1e300")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "continued_fraction"

    def test_usage_error_exit_code(self):
        proc = run_cli("eval", "--x", "1")
        assert proc.returncode == 2
        proc = run_cli("eval", "--x", "1", "--y", "1", "--method", "sorcery")
        assert proc.returncode == 2


class TestTable:
    def test_check_passes(self):
        proc = run_cli("table", "--check")
        assert proc.returncode == 0, proc.stderr
        assert "check passed" in proc.stderr

    def test_default_prints_all_rows(self):
        proc = run_cli("table")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 11  # header + ten rows

    def test_cr_flags_documented_failures(self):
        proc = run_cli("table", "--method", "cr")
        assert proc.returncode == 0
        first_row = proc.stdout.strip().splitlines()[1]
        assert "inaccurate" in first_row
        cells = first_row.split()
        assert rel_error(float(cells[2]), ROWS[(0.01, 0.01)].cr.real) <= 1e-12

    def test_refined_last_row_value(self):
        proc = run_cli("table", "--method", "refined")
        last_row = proc.stdout.strip().splitlines()[-1]
        cells = last_row.split()
        assert rel_error(float(cells[2]), ROWS[(15.0, 15.0)].refined.real) <= 1e-12

    @pytest.mark.parametrize("args", list(TABLE_STDOUT), ids=repr)
    def test_stdout_is_pinned(self, args):
        proc = run_cli("table", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == TABLE_STDOUT[args]

    def test_check_fails_under_wrong_parameters(self):
        # a different expansion no longer reproduces the embedded values
        proc = run_cli("table", "--check", "--tau-m", "11", "--n-terms", "20")
        assert proc.returncode == 1
        assert "check failed" in proc.stderr


class TestScan:
    def test_single_point_csv(self):
        proc = run_cli("scan", "--method", "cr", "--reference", "refined",
                       "--x-min", "1", "--x-max", "1", "--y-min", "1", "--y-max", "1",
                       "--nx", "1", "--ny", "1")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(proc.stdout.splitlines()))
        assert rows[0] == ["x", "y", "rel_error"]
        assert len(rows) == 2
        x, y, err = (float(v) for v in rows[1])
        assert (x, y) == (1.0, 1.0)
        assert 5e-11 < err < 1e-9
        assert "max_rel_error" in proc.stderr

    def test_row_scan_against_oracle(self):
        proc = run_cli("scan", "--method", "cr", "--reference", "oracle",
                       "--y-min", "2.5", "--y-max", "2.5", "--ny", "1",
                       "--nx", "12", "--log")
        assert proc.returncode == 0, proc.stderr
        summary = proc.stderr
        reported = float(summary.split()[1])
        assert reported <= 1e-13

    def test_json_report_shape(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("scan", "--method", "adaptive", "--reference", "refined",
                       "--x-min", "0.5", "--x-max", "2", "--y-min", "0.5",
                       "--y-max", "2", "--nx", "3", "--ny", "2",
                       "--format", "json", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert set(payload) == {"grid", "method", "reference", "max_rel_error",
                                "argmax_point", "per_point"}
        assert payload["method"] == "adaptive"
        assert len(payload["per_point"]) == 6
        assert payload["grid"]["spacing"] == "linear"

    def test_json_is_strict_for_non_finite_errors(self):
        proc = run_cli("scan", "--method", "cr", "--reference", "refined",
                       "--x-min", "1e307", "--x-max", "1e308", "--nx", "2", "--ny", "1",
                       "--format", "json")
        assert proc.returncode == 0, proc.stderr

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(proc.stdout, parse_constant=reject)
        assert payload["max_rel_error"] is None
        assert [err for _, _, err in payload["per_point"]] == [None, None]

    def test_invalid_grid_is_usage_error(self):
        proc = run_cli("scan", "--nx", "0")
        assert proc.returncode == 2
        assert "nx and ny must be >= 1" in proc.stderr
        for flag in ("--x-max", "--y-max"):
            proc = run_cli("scan", flag, "inf")
            assert proc.returncode == 2, flag
            assert "grid bounds must be finite" in proc.stderr

    def test_grid_span_that_overflows_is_usage_error(self):
        # finite bounds, but linspace would step by an infinite span and lay
        # the nodes [nan, inf, 1.7e308]
        proc = run_cli("scan", "--x-min=-1.7e308", "--x-max=1.7e308", "--nx", "3")
        assert proc.returncode == 2
        assert "grid span x_max - x_min must be finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_unwritable_out_is_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "r.csv"
        proc = run_cli("scan", "--method", "cr", "--reference", "refined",
                       "--nx", "1", "--ny", "1", "--out", str(out))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert str(out) in lines[0]
        assert not out.parent.exists()

    def test_failed_scan_leaves_existing_report(self, tmp_path):
        out = tmp_path / "r.csv"
        out.write_text("kept\n")
        proc = run_cli("scan", "--method", "cr", "--reference", "oracle",
                       "--x-min", "1", "--x-max", "1", "--y-min", "1", "--y-max", "1",
                       "--nx", "1", "--ny", "1", "--max-subdivisions", "4",
                       "--out", str(out))
        assert proc.returncode == 3
        assert out.read_text() == "kept\n"

    def test_oracle_starvation_exit_code(self):
        proc = run_cli("scan", "--method", "cr", "--reference", "oracle",
                       "--x-min", "1", "--x-max", "1", "--y-min", "1", "--y-max", "1",
                       "--nx", "1", "--ny", "1", "--max-subdivisions", "4")
        assert proc.returncode == 3
        assert "converge" in proc.stderr

    def test_oracle_at_huge_x_is_numeric_error(self):
        # the first panels are ~1e-308 wide here: the oracle must fail as a
        # numeric error
        proc = run_cli("scan", "--x-min", "1e308", "--x-max", "1e308", "--nx", "1",
                       "--ny", "1", "--y-min", "1", "--y-max", "1")
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


class TestBenchCommand:
    def test_deterministic_checksum(self):
        args = ("bench", "--method", "cr", "--n", "10000", "--seed", "7",
                "--format", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        a = json.loads(first.stdout)
        b = json.loads(second.stdout)
        assert a["checksum"] == b["checksum"]
        assert a["points_evaluated"] == 10000
        assert a["throughput"] > 0

    def test_compare_reports_speedup(self):
        proc = run_cli("bench", "--compare", "--n", "20000", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert set(payload) == {"cr", "refined", "speedup"}
        assert payload["speedup"] > 1.0
        assert "speedup" in proc.stderr

    def test_too_few_points_is_usage_error(self):
        proc = run_cli("bench", "--n", "10")
        assert proc.returncode == 2
        assert "--n must be at least 10000" in proc.stderr

    def test_csv_format(self):
        proc = run_cli("bench", "--method", "adaptive_high_y", "--n", "10000",
                       "--format", "csv")
        rows = list(csv.reader(proc.stdout.splitlines()))
        assert rows[0] == ["method", "points_evaluated", "wall_time",
                           "throughput", "checksum"]
        assert rows[1][0] == "adaptive_high_y"


class TestParameterResolution:
    def test_env_var_changes_result(self):
        base = run_cli("eval", "--x", "1", "--y", "1", "--method", "refined")
        alt = run_cli("eval", "--x", "1", "--y", "1", "--method", "refined",
                      env_extra={"CEF_DEFAULT_PARAMS": "6,11,0.5"})
        assert base.returncode == alt.returncode == 0
        assert base.stdout != alt.stdout

    def test_flags_override_env(self):
        base = run_cli("eval", "--x", "1", "--y", "1", "--method", "refined")
        flagged = run_cli("eval", "--x", "1", "--y", "1", "--method", "refined",
                          "--tau-m", "12", "--n-terms", "23", "--y-switch", "1",
                          env_extra={"CEF_DEFAULT_PARAMS": "6,11,0.5"})
        assert flagged.stdout == base.stdout

    def test_env_var_affects_adaptive_switch(self):
        proc = run_cli("eval", "--x", "1", "--y", "0.8",
                       env_extra={"CEF_DEFAULT_PARAMS": "12,23,0.5"})
        assert parse_eval_output(proc.stdout)[1] == "common_only"

    def test_malformed_env_var_is_usage_error(self):
        proc = run_cli("eval", "--x", "1", "--y", "1",
                       env_extra={"CEF_DEFAULT_PARAMS": "12;23;1"})
        assert proc.returncode == 2

    def test_invalid_params_from_flags(self):
        proc = run_cli("eval", "--x", "1", "--y", "1", "--tau-m", "-1")
        assert proc.returncode == 2
        # tau_m^2 underflows to 0.0 or overflows to inf
        for args in (("eval", "--x", "1", "--y", "1", "--tau-m", "1e-300"),
                     ("eval", "--x", "1", "--y", "1", "--tau-m", "1e155"),
                     ("table", "--tau-m", "1e-200")):
            proc = run_cli(*args)
            assert proc.returncode == 2, args
            assert "finite, nonzero square" in proc.stderr and "Traceback" not in proc.stderr

    def test_flag_overrides_invalid_env_field(self):
        proc = run_cli("eval", "--x", "1", "--y", "0.8", "--y-switch", "1",
                       env_extra={"CEF_DEFAULT_PARAMS": "12,23,-1"})
        assert proc.returncode == 0, proc.stderr


class TestDefaults:
    def test_eval_resolves_to_series_params_defaults(self, monkeypatch):
        monkeypatch.delenv("CEF_DEFAULT_PARAMS", raising=False)
        parser = _build_parser()
        args = parser.parse_args(["eval", "--x", "1", "--y", "1"])
        assert _resolve_params(args, parser) == SeriesParams()

    def test_scan_defaults_are_the_library_defaults(self, monkeypatch):
        # scan with no grid or quadrature flag builds the records from their
        # own defaults; the stub stops before any evaluation
        built = []

        def stop(grid, method, reference, coeffs, spec):
            built.extend((grid, spec))
            raise LookupError

        monkeypatch.setattr("cef.cli.error_scan", stop)
        parser = _build_parser()
        args = parser.parse_args(["scan"])
        with pytest.raises(LookupError):
            args.run(args, None, parser)
        assert built == [GridSpec(), QuadratureSpec()]

    def test_no_parser_action_holds_a_record_default(self):
        # every flag named after a record field is typed by the field's
        # default and leaves the default to the record: a hand-written flag
        # with a default of its own fails here
        commands = next(action for action in _build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        defaults = {name: getattr(record, name)
                    for record in (SeriesParams, GridSpec, QuadratureSpec)
                    for name in record._fields}
        seen = set()
        for command, parser in commands.choices.items():
            for action in parser._actions:
                if action.dest in defaults:
                    seen.add(action.dest)
                    assert action.default is argparse.SUPPRESS, (command, action.dest)
                    assert action.type is type(defaults[action.dest]), (command, action.dest)
        assert seen == set(defaults) - {"spacing"}

    def test_scan_option_strings_in_order(self):
        parser = _build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        scan = commands.choices["scan"]
        assert [flag for action in scan._actions
                for flag in action.option_strings] == SCAN_OPTIONS
