"""Fourier-expansion coefficients for the Gaussian kernel exp(-tau^2/4).

The series kernels in this package all rest on the same approximation: on
the interval [-tau_m, tau_m] the Gaussian kernel is replaced by a cosine
expansion

    exp(-tau^2/4)  ~  -a_0/2 + sum_{n=0..N} a_n cos(n pi tau / tau_m),

whose coefficients have the closed form

    a_n = (2 sqrt(pi) / tau_m) exp(-n^2 pi^2 / tau_m^2).

This module builds those coefficients once, eagerly, so that evaluation
is constant-time per call. The sums every series route runs (the two pole
sums and the refined series' accumulator) are compiled once per table
into straight-line Python functions, one statement per term with the
poles n^2 pi^2 and the other constants as complex literals, so a call
pays no loop or tuple dispatch.
A built table is immutable and safe to share between threads;
there is no module-level default table: callers build one with
``build_coefficients(SeriesParams())`` and pass it to every kernel.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["SeriesParams", "CoefficientTable", "build_coefficients"]

_SQRT_PI = math.sqrt(math.pi)


def _is_real(value: object) -> bool:
    """int or float, but not bool (True would silently become 1.0) and not
    an int too large to convert to float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _is_int(value: object) -> bool:
    """int, but not bool."""
    return isinstance(value, int) and _is_real(value)


@dataclass(frozen=True)
class SeriesParams:
    """Parameters governing every series kernel.

    tau_m    : half-period of the cosine expansion (dimensionless tau units)
    n_terms  : number of summation terms N
    y_switch : imaginary-part threshold of the adaptive kernel; below it the
               refining correction is evaluated, at or above it only the
               pole-sum (Chiarella-Reichel) part runs

    The defaults reproduce the published reference tables.
    """

    tau_m: float = 12.0
    n_terms: int = 23
    y_switch: float = 1.0

    def __post_init__(self) -> None:
        if not (_is_real(self.tau_m) and math.isfinite(self.tau_m) and self.tau_m > 0):
            raise ValueError(f"tau_m must be a finite positive real, got {self.tau_m!r}")
        # build_coefficients divides by tau_m^2, which must neither vanish nor overflow
        if not 0.0 < float(self.tau_m) * float(self.tau_m) < math.inf:
            raise ValueError(f"tau_m must have a finite, nonzero square, got {self.tau_m!r}")
        if not (_is_int(self.n_terms) and self.n_terms >= 1):
            raise ValueError(f"n_terms must be a positive integer, got {self.n_terms!r}")
        if not (_is_real(self.y_switch) and math.isfinite(self.y_switch)
                and self.y_switch >= 0):
            raise ValueError(f"y_switch must be a nonnegative real, got {self.y_switch!r}")
        object.__setattr__(self, "tau_m", float(self.tau_m))
        object.__setattr__(self, "y_switch", float(self.y_switch))


@dataclass(frozen=True)
class CoefficientTable:
    """Precomputed coefficients a_0..a_N bound to the parameters that
    produced them, plus the compiled sums the kernels call.

    The sums are implementation details. With
    c_n = exp(-n^2 pi^2 / tau_m^2) and n = 1..N:

    ``_pole_sum(u)``  sum_n c_n / (n^2 pi^2 - u), the pole sum;
    ``_pole_sums(u)`` (that sum, sum_n (-1)^n c_n / (n^2 pi^2 - u)), each
                      quotient divided out once and added to both;
    ``_refined_sum(u, odd_num, even_num, skip, star)``
                      sum_n a_n num_n / (n^2 pi^2 - u) over the live terms,
                      num_n = odd_num for odd n and even_num for even n,
                      with the term n = skip replaced by -star (skip = 0
                      replaces none): the refined series' accumulator.

    The three sums are straight-line functions compiled by
    ``build_coefficients``; they accumulate in ascending n from 0j, exactly
    as a loop over the same per-term constants would, and equal it bit for
    bit (on CPython up to 3.13; see ``_compile_sums``). ``a`` is a plain
    tuple, so the table is deeply immutable. A table pickles as its
    parameters and is rebuilt on loading.
    """

    params: SeriesParams
    a: tuple[float, ...]
    _pole_sum: Callable[[complex], complex] = field(repr=False, compare=False)
    _pole_sums: Callable[[complex], tuple[complex, complex]] = field(repr=False,
                                                                    compare=False)
    _refined_sum: Callable[[complex, complex, complex, int, complex], complex] = field(
        repr=False, compare=False)

    def __reduce__(self):
        # compiled functions do not pickle; the build is deterministic, so
        # rebuilding from the parameters restores the table bit for bit
        return build_coefficients, (self.params,)


def _compile_sums(params: SeriesParams, poles: tuple[float, ...],
                  exp_factors: list[float], a: tuple[float, ...]
                  ) -> tuple[Callable[[complex], complex],
                             Callable[[complex], tuple[complex, complex]],
                             Callable[[complex, complex, complex, int, complex], complex]]:
    """Generate ``_pole_sum``, ``_pole_sums`` and ``_refined_sum`` from the
    poles n^2 pi^2, the factors c_n and the coefficients a_n of one table,
    n = 1..N in order, in one ``compile``.

    One statement per term, never one chained expression: a chained sum
    nests one level per term and exhausts the compiler's recursion limit
    at large N. The constants are written as complex literals whose repr
    round-trips exactly, so each float-complex operation of a loop over
    the same constants becomes one complex-complex operation with the
    same operands and the same rounding. (That is how CPython evaluated
    mixed float-complex arithmetic up to 3.13: the float was promoted to
    complex(x, 0.0). Python 3.14 applies mixed-mode rules instead, and a
    plain loop there can differ from these functions in the sign of a
    zero imaginary part.) The skipped term of ``_refined_sum`` is added as
    -star, which IEEE arithmetic rounds exactly as subtracting star.

    c_n and a_n decrease strictly, so once one underflows to 0.0 every
    later quotient is a signed zero, which leaves the 0j-seeded sums
    unchanged; generation stops there.
    """
    plain = ["def _pole_sum(u):", "    acc = 0j"]
    fused = ["def _pole_sums(u):", "    common = 0j", "    alternating = 0j"]
    refined = ["def _refined_sum(u, odd_num, even_num, skip, star):", "    acc = 0j"]
    for n, (n2pi2, c_n, a_n) in enumerate(zip(poles, exp_factors, a[1:]), start=1):
        pole = repr(complex(n2pi2))
        if a_n != 0.0:
            num = "odd_num" if n % 2 else "even_num"
            refined.append(f"    acc += -star if skip == {n} else "
                           f"{complex(a_n)!r} * {num} / ({pole} - u)")
        if c_n == 0.0:
            break
        coeff = repr(complex(c_n))
        plain.append(f"    acc += {coeff} / ({pole} - u)")
        fused.append(f"    q = {coeff} / ({pole} - u)")
        fused.append("    common += q")
        fused.append(f"    alternating {'-' if n % 2 else '+'}= q")
    plain.append("    return acc")
    fused.append("    return common, alternating")
    refined.append("    return acc")
    namespace: dict = {}
    exec(compile("\n".join(plain + fused + refined), f"<sums of {params!r}>", "exec"),
         namespace)
    return namespace["_pole_sum"], namespace["_pole_sums"], namespace["_refined_sum"]


def build_coefficients(params: SeriesParams) -> CoefficientTable:
    """Construct the coefficient table for ``params``.

    a_n = (2 sqrt(pi)/tau_m) exp(-n^2 pi^2 / tau_m^2) for n = 0..N. The
    coefficients are strictly positive and strictly decreasing in n until
    they underflow to 0.0 (from n = 105 at tau_m = 12).
    Invalid parameters raise ValueError (via SeriesParams validation).
    """
    tau = params.tau_m
    prefactor = 2.0 * _SQRT_PI / tau
    tau_sq = tau * tau

    poles = tuple((n * n) * (math.pi * math.pi) for n in range(1, params.n_terms + 1))
    exp_factors = [math.exp(-n2pi2 / tau_sq) for n2pi2 in (0.0, *poles)]
    a = tuple(prefactor * c for c in exp_factors)
    return CoefficientTable(params, a, *_compile_sums(params, poles, exp_factors[1:], a))

