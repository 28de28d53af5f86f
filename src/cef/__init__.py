"""Complex error function (Faddeeva function) via exponential-series
approximations.

The package evaluates w(z) = e^{-z^2} erfc(-iz) through a cosine
expansion of the Gaussian kernel: a refined finite-interval series that
is accurate down to very small Im z, the cheaper Chiarella-Reichel pole
sum that is accurate for Im z around 1 and above, and an adaptive kernel
that switches the refining correction off where it is negligible. A
quadrature oracle evaluates the defining integral directly and anchors
every series to an independent reference. Derived functions (Voigt,
complex erfc) and accuracy/throughput analysis tools round out the API;
``python -m cef`` exposes all of it on the command line.

The kernels and derived functions load with the package. The scan and
oracle layers (``analysis``, ``oracle``) load on the first lookup of one
of their names, once per process, so a caller who only evaluates w(z)
never compiles or runs them (PEP 562 module ``__getattr__``).
"""

import importlib

from .coefficients import CoefficientTable, SeriesParams, build_coefficients
from .errors import ConvergenceError, DomainError
from .functions import erfc_complex, erfc_cr_series, imag_l, voigt_k
from .plane import w_full_plane
from .series import EvaluationOutcome, Path, refining_part, w_adaptive, w_cr, w_refined

__version__ = "0.1.0"

__all__ = [
    "SeriesParams", "CoefficientTable", "build_coefficients",
    "Path", "EvaluationOutcome",
    "w_refined", "w_cr", "refining_part", "w_adaptive",
    "w_full_plane",
    "voigt_k", "imag_l", "erfc_complex", "erfc_cr_series",
    "QuadratureSpec", "w_quadrature", "w_finite_quadrature",
    "GridSpec", "AccuracyReport", "BenchReport",
    "error_scan", "measure_throughput", "bench_points",
    "DomainError", "ConvergenceError",
]

# name -> submodule that defines it; a submodule's own name maps to itself
_LAZY = {
    "analysis": "analysis", "GridSpec": "analysis", "AccuracyReport": "analysis",
    "BenchReport": "analysis", "error_scan": "analysis",
    "measure_throughput": "analysis", "bench_points": "analysis",
    "oracle": "oracle", "QuadratureSpec": "oracle", "w_quadrature": "oracle",
    "w_finite_quadrature": "oracle",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    # bound here, later lookups never reach this function
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
