"""Fourier-expansion coefficients for the Gaussian kernel exp(-tau^2/4).

The series kernels in this package all rest on the same approximation: on
the interval [-tau_m, tau_m] the Gaussian kernel is replaced by a cosine
expansion

    exp(-tau^2/4)  ~  -a_0/2 + sum_{n=0..N} a_n cos(n pi tau / tau_m),

whose coefficients have the closed form

    a_n = (2 sqrt(pi) / tau_m) exp(-n^2 pi^2 / tau_m^2).

This module builds those coefficients once, eagerly, so that evaluation
is constant-time per call. What every series route runs (the paper's
common part, closed here, and the parity sums that the refined series and
the full route close) is compiled once per table into straight-line Python
functions, one statement per term (each quotient divided out once and added
to its parity's sum) with the constants as complex literals, so a call pays
no loop or dispatch.
A built table is immutable and safe to share between threads;
there is no module-level default table: callers build one with
``build_coefficients(SeriesParams())`` and pass it to every kernel.

The package declares records two ways. Inputs (``SeriesParams`` and
``CoefficientTable`` here, ``analysis.GridSpec``, ``oracle.QuadratureSpec``)
are ``_Record`` classes, which behave as frozen dataclasses (constructor,
class defaults, repr, ==, hash, ``FrozenInstanceError``, pickles) but are
not dataclasses: ``dataclasses.fields``, ``replace``, ``asdict`` and
``is_dataclass`` do not accept them. Each names its fields in ``_fields``.
Results (``series.EvaluationOutcome``, the reports of ``analysis``, the rows
of ``fixtures``) are ``collections.namedtuple`` classes.
"""

from __future__ import annotations

import math
from collections.abc import Callable

__all__ = ["SeriesParams", "CoefficientTable", "build_coefficients"]

_SQRT_PI = math.sqrt(math.pi)

# the far tier's rungs U / p_max, each just past a step of K at the defaults (_far_bands)
_RUNGS = (1.35, 1.6, 2.0, 2.1, 2.3, 2.65, 3.1, 3.8, 5.0, 7.0, 10.5, 18.0)

# the paper's common part, closing its pole sum
_COMMON_PART = "1j / tz - 2j * tz * {}"


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


class _Record:
    """Frozen record: the attributes named in ``_fields`` make up the repr
    and take part in == and hash. Setting or deleting any attribute raises
    ``dataclasses.FrozenInstanceError``, imported only then, so that
    importing the package never loads ``dataclasses``. No ``__slots__``:
    they would turn the class defaults into descriptors and change the
    pickles."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class SeriesParams(_Record):
    """Parameters governing every series kernel.

    tau_m    : half-period of the cosine expansion (dimensionless tau units)
    n_terms  : number of summation terms N
    y_switch : imaginary-part threshold of the adaptive kernel; below it the
               refining correction is evaluated, at or above it only the
               pole-sum (Chiarella-Reichel) part runs

    The defaults reproduce the published reference tables.
    """

    _fields = __match_args__ = ("tau_m", "n_terms", "y_switch")
    tau_m: float = 12.0
    n_terms: int = 23
    y_switch: float = 1.0

    def __init__(self, tau_m: float = tau_m, n_terms: int = n_terms,
                 y_switch: float = y_switch) -> None:
        if not (_is_real(tau_m) and math.isfinite(tau_m) and tau_m > 0):
            raise ValueError(f"tau_m must be a finite positive real, got {tau_m!r}")
        # build_coefficients divides by tau_m^2, which must neither vanish nor overflow
        if not 0.0 < float(tau_m) * float(tau_m) < math.inf:
            raise ValueError(f"tau_m must have a finite, nonzero square, got {tau_m!r}")
        if not (_is_int(n_terms) and n_terms >= 1):
            raise ValueError(f"n_terms must be a positive integer, got {n_terms!r}")
        if not (_is_real(y_switch) and math.isfinite(y_switch) and y_switch >= 0):
            raise ValueError(f"y_switch must be a nonnegative real, got {y_switch!r}")
        vars(self).update(tau_m=float(tau_m), n_terms=n_terms, y_switch=float(y_switch))


class CoefficientTable(_Record):
    """Precomputed coefficients a_0..a_N bound to the parameters that
    produced them, plus the compiled sums the kernels call.

    The functions are implementation details. With tz = tau_m z,
    u = tz^2, c_n = exp(-n^2 pi^2 / tau_m^2) and n = 1..N:

    ``_common_part(tz, u)``  i/tz - 2i tz S, the paper's common part, with
                      S = sum_n c_n / (n^2 pi^2 - u);
    ``_refined_sum(u, skip)``
                      (odd, even), the odd-n and even-n sums of S without
                      the term n = skip (skip = 0 drops none), each quotient
                      divided out once and added to its parity's sum. The
                      refined series writes the skipped term in closed form;
                      the full route and the refining part close them at
                      skip = 0 (S' = even - odd is the refining part's sum).

    Both are straight-line functions compiled by ``build_coefficients``;
    ``w_cr``, ``w_adaptive`` and ``erfc_cr_series`` (at i tau_m z) share the
    common part. Where |u| >= U_0 = 1.35 p_max, p_max the largest live pole
    (7048.38, |z| >= 6.996, at the defaults), the common part takes S from its
    Laurent series in 1/u, each radius band at its own degree (see
    ``_far_bands``); elsewhere S = odd + even, the odd-n and even-n sums in
    descending n from 0j, as in ``_refined_sum``. Each equals the same loop
    with the same bands, over the same constants and closed the same way, bit
    for bit (on CPython up to 3.13; see ``_compile_sums``).
    ``a`` is a plain tuple, so the table is deeply immutable. The repr, == and
    hash cover ``params`` and ``a`` only, and a table pickles as its parameters.
    """

    _fields = __match_args__ = ("params", "a")
    params: SeriesParams
    a: tuple[float, ...]
    _common_part: Callable[[complex, complex], complex]
    _refined_sum: Callable[[complex, int], tuple[complex, complex]]

    def __init__(self, params, a, _common_part, _refined_sum) -> None:
        vars(self).update(params=params, a=a, _common_part=_common_part,
                          _refined_sum=_refined_sum)

    def __reduce__(self):
        # compiled functions do not pickle; the build is deterministic, so
        # rebuilding from the parameters restores the table bit for bit
        return build_coefficients, (self.params,)


def _far_bands(live: list[tuple[float, float]]) -> tuple[list, list]:
    """The far tier's bands (U_j, K_j), innermost first, and the coefficients -M_k
    (k <= K_0) of S = v sum_k (-M_k) v^k, v = 1/u, M_k = sum_n c_n p_n^k over the N
    live (p_n, c_n). Band j runs from |u| = U_j at K_j, the least degree with
    sum_n c_n (p_n/U_j)^(K+1) / (1 - p_n/U_j) <= 2^-55 sum_n c_n. U_0 is the least
    rung r p_max (r in ``_RUNGS``) with K + 1 < N; out from it each rung whose K
    falls starts a band. None where the rung 2 has no such K or a moment may
    overflow. One pass over k serves every rung."""
    if not live:
        return [], []
    poles, weights = zip(*live)
    p_max, total = poles[-1], math.fsum(weights)
    ratios = {rung: [p / (rung * p_max) for p in poles] for rung in _RUNGS}
    unsettled, degrees, moments = list(_RUNGS), {}, []
    for k in range(len(live) - 1):
        if not unsettled or k * math.log2(p_max) + math.log2(total) > 1000.0:
            break
        moments.append(-math.fsum(c * p ** k for p, c in live))
        while unsettled and math.fsum(c * x ** (k + 1) / (1.0 - x) for c, x in zip(
                weights, ratios[unsettled[-1]])) <= 2.0 ** -55 * total:
            degrees[unsettled.pop()] = k
    if 2.0 not in degrees:
        return [], []
    kept = sorted(degrees.items())   # K falls or stays from each rung to the next
    bands = [(r * p_max, k) for (r, k), (_, j) in zip(kept, [(0, math.inf), *kept]) if k < j]
    return bands, moments[:bands[0][1] + 1]


def _compile_sums(params: SeriesParams, poles: tuple[float, ...], exp_factors: list[float]
                  ) -> tuple[Callable, Callable]:
    """Generate the table's two functions from the poles n^2 pi^2 and the
    factors c_n, n = 1..N in order: ``_common_part``, closed by ``_COMMON_PART``,
    and ``_refined_sum``, one ``compile`` each.

    The common part's far tier comes first: K_j + 1 Horner steps in v = 1/u over
    the moments in band j (at most 22 for 23 partial fractions at the defaults),
    within 4.4e-16 of 40 digits. Both share the near tier's lines ``odd += c_n /
    (p_n - u)`` or ``even +=``, in descending n (``_refined_sum``'s each behind
    ``if skip != n:``): past the last pole both sums have one sign, the refining
    part's S' = even - odd cancels, and ascending n lost up to 0.26 digits of
    ``voigt_k`` accuracy.

    One statement per term, never one chained expression, which nests one level
    per term and exhausts the compiler's recursion limit at large N; a far-tier
    sum is one expression, K_0 + 1 <= 132 levels deep (p_n/U_0 <= 1/1.35) plus
    one per band. The constants are complex literals whose repr round-trips
    exactly, so each float-complex operation of a loop over them becomes one
    complex-complex operation with the same operands and rounding (CPython up
    to 3.13 promoted the float to complex(x, 0.0); 3.14's mixed-mode rules can
    change the sign of a zero imaginary part).

    c_n decreases strictly, so once it underflows to 0.0 every later quotient
    is a signed zero, which leaves the 0j-seeded sums unchanged; those terms
    generate no code.
    """
    # the (n^2 pi^2, c_n) of the pole sums with c_n > 0, and their lines in descending n
    live = [(n2pi2, c_n) for n2pi2, c_n in zip(poles, exp_factors) if c_n]
    terms = [(n, f"{('even', 'odd')[n % 2]} += {complex(c)!r} / ({complex(p)!r} - u)")
             for n, (p, c) in reversed([*enumerate(live, 1)])]
    near = ["    odd = even = 0j", *(f"    {term}" for _, term in terms)]
    plain = ["def _common_part(tz, u):", *near,
             f"    return {_COMMON_PART.format('(odd + even)')}"]
    refined = ["def _refined_sum(u, skip):", near[0],
               *(f"    if skip != {n}: {term}" for n, term in terms), "    return odd, even"]
    bands, moments = _far_bands(live)
    if bands:  # the far tier first, closed by the same template
        plain[1:1] = [f"    if (au := abs(u)) >= {bands[0][0]!r}:", "        v = (1+0j) / u",
                      f"        s = {_laurent(bands, moments)}",
                      f"        return {_COMMON_PART.format('s')}"]
    namespace: dict = {}
    for lines in (plain, refined):   # one at a time: a lower peak of memory
        exec(compile("\n".join(lines), f"<sums of {params!r}>", "exec"), namespace)
    return namespace["_common_part"], namespace["_refined_sum"]


def _laurent(bands: list, coefficients: list[float]) -> str:
    """v sum_k coefficients[k] v^k by Horner in v from degree K_j in band j: one
    expression that tests the bands from the outermost inward and runs the
    deepest terms first, each band's steps continuing those of the band inside."""
    terms = [repr(complex(c)) for c in coefficients]
    top = bands[0][1]
    s = terms[top]
    for far, low in [*bands[1:], (None, 0)]:   # continue s down to degree low
        s = "(" * (top - low) + s + "".join(f" * v + {t})" for t in terms[low:top][::-1])
        if far:   # the band from U_j = far starts at its own top term
            s = f"({s} if au < {far!r} else {terms[low]})"
        top = low
    return s + " * v"


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
    return CoefficientTable(params, a, *_compile_sums(params, poles, exp_factors[1:]))

