"""What importing and using the package loads: numpy only once the
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


def test_kernels_and_cli_leave_numpy_unloaded():
    env = dict(os.environ)
    env.pop("CEF_DEFAULT_PARAMS", None)
    src = os.path.dirname(os.path.dirname(cef.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
