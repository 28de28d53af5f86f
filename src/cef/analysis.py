"""Accuracy cartography and throughput measurement for the series kernels.

``error_scan`` maps the relative error of one kernel against a reference
(the quadrature oracle or the refined series) over a rectangular grid;
this is how the small-y failure of the pole sum is made visible. Grid
axes are numpy's ``linspace``/``logspace``, imported on first use; numpy's
power is not libm's pow, so a pure-Python log axis would round differently.
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

from .coefficients import CoefficientTable, _is_int, _is_real
from .errors import ConvergenceError
from .oracle import QuadratureSpec, _quadrature_row, w_quadrature
from .series import _COMMON_ONLY, _REFINED, w_adaptive, w_cr, w_refined

# w_quadrature is re-exported, not called: error_scan integrates the oracle
# a row at a time (oracle._quadrature_row), and code that wraps the oracle
# by its name here, such as perfbench's tracer, must still find it
__all__ = ["GridSpec", "AccuracyReport", "BenchReport", "error_scan",
           "measure_throughput", "bench_points", "w_quadrature"]


def _adaptive(z: complex, coeffs: CoefficientTable):
    return w_adaptive(z, coeffs)


# method name -> (evaluate(z, coeffs) -> (value, Path), bench region, or None
# for a scan-only name). Every entry reads its kernel as a module global at
# call time, so a wrapper installed on e.g. cef.analysis.w_adaptive sees
# every call made through the registry.
METHODS = {
    "refined": (lambda z, coeffs: (w_refined(z, coeffs), _REFINED), "full"),
    "cr": (lambda z, coeffs: (w_cr(z, coeffs), _COMMON_ONLY), "full"),
    "adaptive": (_adaptive, None),
    "adaptive_low_y": (_adaptive, "low_y"),
    "adaptive_high_y": (_adaptive, "high_y"),
}
SCAN_METHODS = ("refined", "cr", "adaptive")
SCAN_REFERENCES = ("oracle", "refined")
BENCH_METHODS = tuple(name for name, (_, region) in METHODS.items() if region)
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
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not (all(map(_is_real, bounds)) and _is_int(self.nx) and _is_int(self.ny)):
            raise ValueError(f"grid bounds must be reals and nx, ny integers, got {self!r}")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"grid bounds must be finite, got x in "
                             f"[{self.x_min!r}, {self.x_max!r}], "
                             f"y in [{self.y_min!r}, {self.y_max!r}]")
        if not self.x_min <= self.x_max:
            raise ValueError(f"x_min={self.x_min!r} must not exceed x_max={self.x_max!r}")
        if not 0 < self.y_min <= self.y_max:
            raise ValueError(f"need 0 < y_min <= y_max, got "
                             f"y_min={self.y_min!r}, y_max={self.y_max!r}")
        # a linear axis steps by its span; y's cannot overflow, as 0 < y_min
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError(f"grid span x_max - x_min must be finite, got x in "
                             f"[{self.x_min!r}, {self.x_max!r}]")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"nx and ny must be >= 1, got nx={self.nx!r}, ny={self.ny!r}")
        if self.spacing == "logarithmic" and self.x_min <= 0:
            raise ValueError("logarithmic spacing requires x_min > 0")

    def _axis(self, lo: float, hi: float, n: int) -> list[float]:
        import numpy as np
        if self.spacing == "logarithmic":
            return [float(v) for v in np.logspace(math.log10(lo), math.log10(hi), n)]
        return [float(v) for v in np.linspace(lo, hi, n)]

    def x_nodes(self) -> list[float]:
        return self._axis(self.x_min, self.x_max, self.nx)

    def y_nodes(self) -> list[float]:
        return self._axis(self.y_min, self.y_max, self.ny)


@dataclass(frozen=True)
class AccuracyReport:
    """Maximum and per-point relative error of a method against a
    reference over a grid."""

    grid: GridSpec
    method: str
    reference: str
    max_rel_error: float
    argmax_point: tuple[float, float]
    per_point: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class BenchReport:
    """Single-method throughput measurement."""

    method: str
    points_evaluated: int
    wall_time: float
    throughput: float
    checksum: float


def error_scan(grid: GridSpec, method: str, reference: str,
               coeffs: CoefficientTable, spec: QuadratureSpec | None = None
               ) -> AccuracyReport:
    """Relative error |method - reference| / max(|reference|, 1e-300) at
    every grid node. A node where the method or the reference raises
    OverflowError (the series formulas do once (tau_m z)^2 overflows) has
    error NaN. A NaN error is the maximum, reported at its first node.
    The oracle reference is integrated a row of x at a time; when its
    panel budget runs out, the ConvergenceError is re-raised tagged with
    the row's first node, in scan order, that had not converged."""
    if reference not in SCAN_REFERENCES:
        raise ValueError(f"unknown reference {reference!r}, expected one of {SCAN_REFERENCES}")
    if method not in SCAN_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {SCAN_METHODS}")
    evaluate = METHODS[method][0]
    qspec = spec if spec is not None else QuadratureSpec()

    max_err = 0.0
    argmax = (grid.x_min, grid.y_min)
    per_point: list[tuple[float, float, float]] = []
    xs = grid.x_nodes()
    for y in grid.y_nodes():
        if reference == "oracle":
            # one call per row: the row's nodes share the oracle's envelope
            try:
                refs = _quadrature_row(xs, y, qspec)
            except ConvergenceError as exc:
                # the node a per-node loop would have stopped at
                x = xs[exc.unconverged[0]]
                raise ConvergenceError(
                    f"reference failed to converge at x={x!r}, y={y!r}: {exc}") from exc
        for i, x in enumerate(xs):
            z = complex(x, y)
            try:
                ref = refs[i] if reference == "oracle" else w_refined(z, coeffs)
                value = evaluate(z, coeffs)[0]
            except OverflowError:
                # the series formulas raise once (tau_m z)^2 overflows
                err = math.nan
            else:
                err = abs(value - ref) / max(abs(ref), _REL_ERROR_FLOOR)
            per_point.append((x, y, err))
            if err > max_err or (math.isnan(err) and not math.isnan(max_err)):
                max_err = err
                argmax = (x, y)
    return AccuracyReport(grid=grid, method=method, reference=reference,
                          max_rel_error=max_err, argmax_point=argmax,
                          per_point=tuple(per_point))


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


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
    evaluate, region = METHODS[method]
    points = bench_points(region, n_points, seed)

    checksum = 0.0
    start = time.perf_counter()
    for z in points:
        v = evaluate(z, coeffs)[0]
        checksum += v.real + v.imag
    wall = time.perf_counter() - start

    return BenchReport(method=method, points_evaluated=n_points, wall_time=wall,
                       throughput=n_points / wall, checksum=checksum)
