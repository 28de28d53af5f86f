"""Accuracy cartography and throughput measurement for the series kernels.

``error_scan`` maps the relative error of one kernel against a reference
(the quadrature oracle or the refined series) over a rectangular grid;
this is how the small-y failure of the pole sum is made visible.
``measure_throughput`` times a kernel over deterministic pseudo-random
arguments and reports evaluations per second plus a checksum that both
prevents dead-code elimination and allows cross-method comparisons.

Benchmark arguments come from a fixed 64-bit linear congruential
generator (Knuth's MMIX constants: state <- 6364136223846793005 * state
+ 1442695040888963407 mod 2^64, uniform = (state >> 11) / 2^53) so that
identical (method, n_points, seed) runs produce identical point sets and
checksums on any platform.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientTable
from .errors import ConvergenceError
from .oracle import QuadratureSpec, w_quadrature
from .series import w_adaptive, w_cr, w_refined

__all__ = ["GridSpec", "AccuracyReport", "BenchReport", "error_scan",
           "measure_throughput", "bench_points"]

SCAN_METHODS = ("refined", "cr", "adaptive")
SCAN_REFERENCES = ("oracle", "refined")
BENCH_METHODS = ("refined", "cr", "adaptive_low_y", "adaptive_high_y")
MIN_BENCH_POINTS = 10_000

# relative-error denominator floor; |w| never vanishes on scanned regions,
# so this is a formality against division blow-ups
_REL_ERROR_FLOOR = 1e-300


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid, linear or logarithmic in both axes.

    The defaults cover the range that matters for line-shape work:
    x in [0.01, 15], y from 1e-4 up to 15, 20 nodes per axis.
    """

    x_min: float = 0.01
    x_max: float = 15.0
    y_min: float = 1e-4
    y_max: float = 15.0
    nx: int = 20
    ny: int = 20
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.spacing not in ("linear", "logarithmic"):
            raise ValueError(f"spacing must be 'linear' or 'logarithmic', "
                             f"got {self.spacing!r}")
        if not self.x_min <= self.x_max:
            raise ValueError(f"x_min={self.x_min!r} must not exceed x_max={self.x_max!r}")
        if not 0 < self.y_min <= self.y_max:
            raise ValueError(f"need 0 < y_min <= y_max, got "
                             f"y_min={self.y_min!r}, y_max={self.y_max!r}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"nx and ny must be >= 1, got nx={self.nx!r}, ny={self.ny!r}")
        if self.spacing == "logarithmic" and self.x_min <= 0:
            raise ValueError("logarithmic spacing requires x_min > 0")

    def _axis(self, lo: float, hi: float, n: int) -> list[float]:
        if self.spacing == "logarithmic":
            return [float(v) for v in np.logspace(math.log10(lo), math.log10(hi), n)]
        return [float(v) for v in np.linspace(lo, hi, n)]

    def x_nodes(self) -> list[float]:
        return self._axis(self.x_min, self.x_max, self.nx)

    def y_nodes(self) -> list[float]:
        return self._axis(self.y_min, self.y_max, self.ny)


@dataclass(frozen=True)
class AccuracyReport:
    """Maximum and optionally per-point relative error of a method
    against a reference over a grid."""

    grid: GridSpec
    method: str
    reference: str
    max_rel_error: float
    argmax_point: tuple[float, float]
    per_point: tuple[tuple[float, float, float], ...] | None = None


@dataclass(frozen=True)
class BenchReport:
    """Single-method throughput measurement."""

    method: str
    points_evaluated: int
    wall_time: float
    throughput: float
    checksum: float


def _method_fn(name: str, coeffs: CoefficientTable):
    if name == "refined":
        return lambda z: w_refined(z, coeffs)
    if name == "cr":
        return lambda z: w_cr(z, coeffs)
    if name == "adaptive":
        return lambda z: w_adaptive(z, coeffs).value
    raise ValueError(f"unknown method {name!r}, expected one of {SCAN_METHODS}")


def error_scan(grid: GridSpec, method: str, reference: str,
               coeffs: CoefficientTable, spec: QuadratureSpec | None = None,
               keep_per_point: bool = True) -> AccuracyReport:
    """Relative error |method - reference| / max(|reference|, 1e-300) at
    every grid node. Oracle convergence failures are re-raised tagged with
    the offending node."""
    if reference not in SCAN_REFERENCES:
        raise ValueError(f"unknown reference {reference!r}, expected one of {SCAN_REFERENCES}")
    m_fn = _method_fn(method, coeffs)
    if reference == "oracle":
        qspec = spec if spec is not None else QuadratureSpec()
        r_fn = lambda z: w_quadrature(z, qspec)
    else:
        r_fn = lambda z: w_refined(z, coeffs)

    max_err = 0.0
    argmax = (grid.x_min, grid.y_min)
    per_point: list[tuple[float, float, float]] = []
    for y in grid.y_nodes():
        for x in grid.x_nodes():
            z = complex(x, y)
            try:
                ref = r_fn(z)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"reference failed to converge at x={x!r}, y={y!r}: {exc}") from exc
            err = abs(m_fn(z) - ref) / max(abs(ref), _REL_ERROR_FLOOR)
            if keep_per_point:
                per_point.append((x, y, err))
            if err > max_err:
                max_err = err
                argmax = (x, y)
    return AccuracyReport(grid=grid, method=method, reference=reference,
                          max_rel_error=max_err, argmax_point=argmax,
                          per_point=tuple(per_point) if keep_per_point else None)


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53

_BENCH_REGIONS = {
    "refined": "full",
    "cr": "full",
    "adaptive_low_y": "low_y",
    "adaptive_high_y": "high_y",
}


def bench_points(region: str, n_points: int, seed: int) -> list[complex]:
    """Deterministic benchmark arguments, x in [0, 15).

    region 'full'   : y in (0, 15]
    region 'low_y'  : y in (0, 1)   (zero draws rejected and redrawn)
    region 'high_y' : y in [1, 15)
    """
    if region not in ("full", "low_y", "high_y"):
        raise ValueError(f"unknown region {region!r}")
    state = seed & _LCG_MASK

    def draw() -> float:
        nonlocal state
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        return (state >> 11) * _INV_2_53

    points = []
    for _ in range(n_points):
        x = 15.0 * draw()
        if region == "full":
            y = 15.0 * (1.0 - draw())
        elif region == "high_y":
            y = 1.0 + 14.0 * draw()
        else:
            u = draw()
            while u == 0.0:
                u = draw()
            y = u
        points.append(complex(x, y))
    return points


def measure_throughput(method: str, n_points: int, seed: int,
                       coeffs: CoefficientTable) -> BenchReport:
    """Time ``method`` over its region's deterministic points.

    Single-threaded by contract so that reported throughputs are
    comparable between methods. The checksum is the plain sum of the real
    and imaginary parts of every result.
    """
    if method not in BENCH_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {BENCH_METHODS}")
    if n_points < MIN_BENCH_POINTS:
        raise ValueError(f"n_points must be at least {MIN_BENCH_POINTS}, got {n_points}")
    points = bench_points(_BENCH_REGIONS[method], n_points, seed)

    checksum = 0.0
    if method in ("adaptive_low_y", "adaptive_high_y"):
        start = time.perf_counter()
        for z in points:
            v = w_adaptive(z, coeffs).value
            checksum += v.real + v.imag
        wall = time.perf_counter() - start
    else:
        fn = w_refined if method == "refined" else w_cr
        start = time.perf_counter()
        for z in points:
            v = fn(z, coeffs)
            checksum += v.real + v.imag
        wall = time.perf_counter() - start

    return BenchReport(method=method, points_evaluated=n_points, wall_time=wall,
                       throughput=n_points / wall, checksum=checksum)
