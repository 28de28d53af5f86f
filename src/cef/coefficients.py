"""Fourier-expansion coefficients for the Gaussian kernel exp(-tau^2/4).

The series kernels in this package all rest on the same approximation: on
the interval [-tau_m, tau_m] the Gaussian kernel is replaced by a cosine
expansion

    exp(-tau^2/4)  ~  -a_0/2 + sum_{n=0..N} a_n cos(n pi tau / tau_m),

whose coefficients have the closed form

    a_n = (2 sqrt(pi) / tau_m) exp(-n^2 pi^2 / tau_m^2).

This module builds those coefficients once, eagerly, together with the
per-term constants every kernel needs (n^2 pi^2, the bare exponential
factors, n^2 h^2 with h = pi/tau_m), so that evaluation is allocation-free
and constant-time per call. A built table is immutable and safe to share
between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["SeriesParams", "CoefficientTable", "build_coefficients", "default_coefficients"]

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class SeriesParams:
    """Parameters governing every series kernel.

    tau_m    : half-period of the cosine expansion (dimensionless tau units)
    n_terms  : number of summation terms N
    y_switch : imaginary-part threshold of the adaptive kernel; below it the
               refining correction is evaluated, at or above it only the
               pole-sum (Chiarella-Reichel) part runs

    The defaults (12, 23, 1.0) reproduce the published reference tables.
    """

    tau_m: float = 12.0
    n_terms: int = 23
    y_switch: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.tau_m, (int, float)) and math.isfinite(self.tau_m)
                and self.tau_m > 0):
            raise ValueError(f"tau_m must be a finite positive real, got {self.tau_m!r}")
        if not isinstance(self.n_terms, int) or isinstance(self.n_terms, bool) \
                or self.n_terms < 1:
            raise ValueError(f"n_terms must be a positive integer, got {self.n_terms!r}")
        if not (isinstance(self.y_switch, (int, float)) and math.isfinite(self.y_switch)
                and self.y_switch >= 0):
            raise ValueError(f"y_switch must be a nonnegative real, got {self.y_switch!r}")
        object.__setattr__(self, "tau_m", float(self.tau_m))
        object.__setattr__(self, "y_switch", float(self.y_switch))

    @property
    def h(self) -> float:
        """Small step parameter h = pi / tau_m."""
        return math.pi / self.tau_m


@dataclass(frozen=True)
class CoefficientTable:
    """Precomputed coefficients a_0..a_N bound to the parameters that
    produced them, plus derived per-term constants used by the kernels.

    The derived tuples are implementation details, one entry per n = 1..N:

    ``_cr_terms``      (n^2 pi^2, c_n) with c_n = exp(-n^2 pi^2 / tau_m^2),
                       feeding the pole sum;
    ``_refined_terms`` (n^2 pi^2, a_n, n odd), feeding the refined series;
    ``_refine_terms``  (n^2 pi^2, c_n, n odd), feeding the single pass that
                       yields the pole sum and its (-1)^n companion together;
    ``_h_terms``       (n^2 h^2, c_n), the pole sum in h-parameterization;
    ``_axis_terms``    (n pi, a_n), the real-axis limit.

    All members are plain tuples, so the table is deeply immutable.
    """

    params: SeriesParams
    a: tuple[float, ...]
    _cr_terms: tuple[tuple[float, float], ...] = field(repr=False, compare=False)
    _refined_terms: tuple[tuple[float, float, bool], ...] = field(repr=False, compare=False)
    _refine_terms: tuple[tuple[float, float, bool], ...] = field(repr=False, compare=False)
    _h_terms: tuple[tuple[float, float], ...] = field(repr=False, compare=False)
    _axis_terms: tuple[tuple[float, float], ...] = field(repr=False, compare=False)


def build_coefficients(params: SeriesParams) -> CoefficientTable:
    """Construct the coefficient table for ``params``.

    a_n = (2 sqrt(pi)/tau_m) exp(-n^2 pi^2 / tau_m^2) for n = 0..N. The
    coefficients are strictly positive and strictly decreasing in n.
    Invalid parameters raise ValueError (via SeriesParams validation).
    """
    tau = params.tau_m
    n_max = params.n_terms
    prefactor = 2.0 * _SQRT_PI / tau
    tau_sq = tau * tau
    h = params.h
    h_sq = h * h

    exp_factors = [math.exp(-(n * n) * (math.pi * math.pi) / tau_sq)
                   for n in range(n_max + 1)]
    a = tuple(prefactor * c for c in exp_factors)

    cr_terms = []
    refined_terms = []
    refine_terms = []
    h_terms = []
    axis_terms = []
    for n in range(1, n_max + 1):
        n2pi2 = (n * n) * (math.pi * math.pi)
        c_n = exp_factors[n]
        odd = bool(n % 2)
        cr_terms.append((n2pi2, c_n))
        refined_terms.append((n2pi2, a[n], odd))
        refine_terms.append((n2pi2, c_n, odd))
        h_terms.append(((n * n) * h_sq, c_n))
        axis_terms.append((n * math.pi, a[n]))

    return CoefficientTable(
        params=params,
        a=a,
        _cr_terms=tuple(cr_terms),
        _refined_terms=tuple(refined_terms),
        _refine_terms=tuple(refine_terms),
        _h_terms=tuple(h_terms),
        _axis_terms=tuple(axis_terms),
    )


_DEFAULT_TABLE: CoefficientTable | None = None


def default_coefficients() -> CoefficientTable:
    """Shared table for the default parameters (tau_m=12, N=23, y_switch=1)."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = build_coefficients(SeriesParams())
    return _DEFAULT_TABLE
