"""What importing and using the package loads: the plane and derived-function
layers, and the scan and oracle layers, only on the first lookup of one of
their names, numpy only once the quadrature oracle or a scan grid needs it,
dataclasses never, inspect and typing only with numpy, and the published
table only for ``cef table``."""

import importlib.util
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


def _run_fresh(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter, started with ``flags``, that
    imports this checkout's cef."""
    env = dict(os.environ)
    env.pop("CEF_DEFAULT_PARAMS", None)
    src = os.path.dirname(os.path.dirname(cef.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", script],
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


# the series kernels run without the plane and derived-function layers, which
# load once, on the first lookup of one of their names; a meta-path finder
# that finds nothing counts each search for a module not yet loaded
LAYER_SCRIPT = """
import sys
import cef

table = cef.build_coefficients(cef.SeriesParams())
for z in (1 + 0.5j, 0.3 + 2j, 7.5 + 3j):
    cef.w_adaptive(z, table)
    cef.w_cr(z, table)
    cef.w_refined(z, table)
loaded = [name for name in ("cef.plane", "cef.functions") if name in sys.modules]
assert not loaded, "loaded by the series kernels: " + ", ".join(loaded)
listed = dir(cef)
assert set(cef.__all__) | {"plane", "functions"} <= set(listed)


class CountingFinder:
    searched = []

    def find_spec(self, name, path=None, target=None):
        self.searched.append(name)


sys.meta_path.insert(0, CountingFinder())
functions = cef.functions
assert functions is sys.modules["cef.functions"] and "cef.plane" in sys.modules
assert CountingFinder.searched == ["cef.functions", "cef.plane"], CountingFinder.searched
# perfbench's tracer and its pole-sum test patch this global of voigt_k's
patched = []
original = functions.w_adaptive
functions.w_adaptive = lambda z, coeffs: patched.append(z) or original(z, coeffs)
assert cef.voigt_k(1.0, 0.5, table) == original(1 + 0.5j, table).value.real and patched
moved = {"plane": "plane", "w_full_plane": "plane", "functions": "functions",
         "voigt_k": "functions", "imag_l": "functions", "erfc_complex": "functions",
         "erfc_cr_series": "functions"}
for name, module_name in moved.items():
    module = sys.modules["cef." + module_name]
    value = getattr(cef, name)
    assert value is (module if name == module_name else getattr(module, name)), name
    assert getattr(cef, name) is value is vars(cef)[name], name
assert CountingFinder.searched == ["cef.functions", "cef.plane"], CountingFinder.searched
assert dir(cef) == listed
namespace = {}
exec("from cef import *", namespace)
assert sorted(name for name in namespace if name != "__builtins__") == sorted(cef.__all__)
"""


def test_plane_and_derived_function_layers_load_on_first_use():
    done = _run_fresh(LAYER_SCRIPT)
    assert done.returncode == 0, done.stderr


# -S keeps site's start-up hooks, which can load typing themselves, out of it
STDLIB_SCRIPT = """
import sys
import cef

table = cef.build_coefficients(cef.SeriesParams())
for z in (1 + 0.5j, 0.3 + 2j, 2.0 + 1e-9j):
    for kernel in (cef.w_refined, cef.w_cr, cef.refining_part, cef.w_adaptive):
        kernel(z, table)
for z in (1 + 0.5j, -1 - 0.5j, 2.0 + 0j, -2.0 + 0j, 0j):
    cef.w_full_plane(z, table)
cef.voigt_k(1.0, 0.5, table)
cef.imag_l(1.0, 0.5, table)
cef.erfc_complex(0.5 - 0.5j, table)
cef.erfc_cr_series(0.5 + 0.5j, table)
assert table == cef.build_coefficients(cef.SeriesParams()) and hash(table) and repr(table)
cef.GridSpec()
cef.QuadratureSpec()
from cef import cli
for argv in (["eval", "--x", "1", "--y", "1"], ["table", "--check"],
             ["bench", "--n", "10000"]):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules
loaded = [name for name in ("dataclasses", "inspect", "typing", "ast", "dis")
          if name in sys.modules]
assert not loaded, "loaded by the kernels, the records or the CLI: " + ", ".join(loaded)
# numpy, which a grid needs, loads inspect and typing itself: from here on
# only dataclasses can be told apart
sys.path.append(NUMPY_HOME)
cef.error_scan(cef.GridSpec(nx=2, ny=2), "adaptive", "oracle", table)
assert cli.main(["scan", "--nx", "2", "--ny", "2"]) == 0
assert "numpy" in sys.modules and "dataclasses" not in sys.modules
"""


def test_kernels_leave_dataclasses_inspect_and_typing_unloaded():
    # under -S numpy is not on the path: the script appends its directory
    # once the checks that numpy would spoil have run
    numpy_home = os.path.dirname(os.path.dirname(importlib.util.find_spec("numpy").origin))
    done = _run_fresh(f"NUMPY_HOME = {numpy_home!r}\n" + STDLIB_SCRIPT, "-S")
    assert done.returncode == 0, done.stderr


# under -S, as above
EVAL_SCRIPT = """
import sys
from cef import cli

assert cli.main(["eval", "--x", "1", "--y", "1"]) == 0
loaded = [name for name in ("cef.fixtures", "typing") if name in sys.modules]
assert not loaded, "loaded by cef eval: " + ", ".join(loaded)
assert cli.main(["table", "--check"]) == 0
assert "cef.fixtures" in sys.modules, "cef table ran without the published table"
"""


def test_eval_leaves_the_published_table_and_typing_unloaded():
    done = _run_fresh(EVAL_SCRIPT, "-S")
    assert done.returncode == 0, done.stderr
