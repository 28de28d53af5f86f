"""What importing and using the package loads: the scan and oracle layers
only on the first lookup of one of their names, and numpy only once the
quadrature oracle or a scan grid needs it."""

import os
import subprocess
import sys

import cef

# every kernel and derived function, and the CLI commands that need no grid
SCRIPT = """
import sys
import cef
from cef import cli

table = cef.build_coefficients(cef.SeriesParams())
for z in (1 + 0.5j, 0.3 + 2j, 2.0 + 1e-9j):
    cef.w_refined(z, table)
    cef.w_cr(z, table)
    cef.refining_part(z, table)
    cef.w_adaptive(z, table)
for z in (1 + 0.5j, -1 - 0.5j, 2.0 + 0j, -2.0 + 0j, 0j):
    cef.w_full_plane(z, table)
cef.voigt_k(1.0, 0.5, table)
cef.imag_l(1.0, 0.5, table)
cef.erfc_complex(0.5 - 0.5j, table)
cef.erfc_cr_series(0.5 + 0.5j, table)
for argv in (["eval", "--x", "1", "--y", "1"], ["table", "--check"],
             ["bench", "--n", "10000"]):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy loaded without the oracle or a grid"
cef.w_quadrature(1 + 1j, cef.QuadratureSpec())
assert "numpy" in sys.modules, "the oracle ran without numpy"
"""


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's cef."""
    env = dict(os.environ)
    env.pop("CEF_DEFAULT_PARAMS", None)
    src = os.path.dirname(os.path.dirname(cef.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)


def test_kernels_and_cli_leave_numpy_unloaded():
    done = _run_fresh(SCRIPT)
    assert done.returncode == 0, done.stderr


# the scan and oracle layers load on the first lookup of one of their names
LAZY_SCRIPT = """
import sys
import cef

table = cef.build_coefficients(cef.SeriesParams())
z = 1 + 0.5j
for kernel in (cef.w_refined, cef.w_cr, cef.refining_part, cef.w_adaptive, cef.w_full_plane):
    kernel(z, table)
cef.voigt_k(1.0, 0.5, table)
cef.imag_l(1.0, 0.5, table)
cef.erfc_complex(0.5 - 0.5j, table)
cef.erfc_cr_series(0.5 + 0.5j, table)
for name in ("cef.analysis", "cef.oracle", "numpy"):
    assert name not in sys.modules, name + " loaded by the kernels"

from cef import error_scan
assert "cef.analysis" in sys.modules and "cef.oracle" in sys.modules
assert error_scan is cef.analysis.error_scan is cef.error_scan
assert cef.QuadratureSpec is cef.oracle.QuadratureSpec
assert getattr(cef, "oracle") is sys.modules["cef.oracle"]

namespace = {}
exec("from cef import *", namespace)
assert all(namespace[name] is getattr(cef, name) for name in cef.__all__)
assert set(cef.__all__) <= set(dir(cef))
try:
    cef.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("cef.no_such_name resolved")
"""


def test_scan_and_oracle_layers_load_on_first_use():
    done = _run_fresh(LAZY_SCRIPT)
    assert done.returncode == 0, done.stderr
