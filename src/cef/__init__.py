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
"""

from .analysis import (AccuracyReport, BenchReport, GridSpec, bench_points,
                       error_scan, measure_throughput)
from .coefficients import CoefficientTable, SeriesParams, build_coefficients
from .errors import ConvergenceError, DomainError
from .functions import erfc_complex, erfc_cr_series, imag_l, voigt_k
from .oracle import QuadratureSpec, w_finite_quadrature, w_quadrature
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
