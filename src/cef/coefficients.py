"""Fourier-expansion coefficients for the Gaussian kernel exp(-tau^2/4).

The series kernels in this package all rest on the same approximation: on
the interval [-tau_m, tau_m] the Gaussian kernel is replaced by a cosine
expansion

    exp(-tau^2/4)  ~  -a_0/2 + sum_{n=0..N} a_n cos(n pi tau / tau_m),

whose coefficients have the closed form

    a_n = (2 sqrt(pi) / tau_m) exp(-n^2 pi^2 / tau_m^2).

This module builds those coefficients once, eagerly, so that evaluation
is constant-time per call. What the series routes run (the paper's common
part, closed here, which every route runs and a table compiles when built,
and the parity sums that the refined series and the full route close, which
it compiles on first use) is straight-line Python, one statement per term
(each quotient divided out once and added to its parity's sum) with the
constants as complex literals, so a call pays no loop or dispatch.
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

import functools
import math
from collections.abc import Callable

__all__ = ["SeriesParams", "CoefficientTable", "build_coefficients"]

_SQRT_PI = math.sqrt(math.pi)

# The Laplace continued fraction's numerators, deepest first, cut at nu = 14 levels: w(z) ~
# (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - ...))). series._continued_fraction writes them as
# literals; the common part's far tier takes them times tau_m^2, in tau_m z (_compile_sums).
_LEVELS = (7.0, 6.5, 6.0, 5.5, 5.0, 4.5, 4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5)

# The continued fraction answers wherever |z| >= _FAR_ABS: at nu = 14 it is
# within 2.5e-16 of 40-digit mpmath on 400 angles of the quadrant at
# |z| = 7, 8, 9, 10, 12, 15, 28 and 100; at |z| = 6.5 it is 8.5e-16 off, at
# 6 2.1e-14 and at 5 1.2e-10, and no useful depth reaches 1e-11 at |z| ~ 5.
# For a finite z with y >= 0 the test is `y >= _FAR_ABS or abs(z) >=
# _FAR_ABS`: abs(z) raises OverflowError past |z| ~ 1.8e308 (at 1.5e308 +
# 1.5e308j), and it runs only for y < _FAR_ABS, where it cannot.
# series._edge, plane.w_full_plane and functions.voigt_k write it inline: as a shared
# function it cost ~120 ns a call (CPython 3.11, 2-vCPU Xeon VM), full_plane
# 5.9% of its points/s and voigt_profiles-shaped batches 2.4% of their time.
# tests/test_far_field.py pins the three to one boundary and the largest doubles.
_FAR_ABS = 7.0

_COMPILED_ON_FIRST_USE = object()


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

    Both are straight-line functions. ``build_coefficients`` compiles the first,
    which ``w_cr``, ``w_adaptive`` and ``erfc_cr_series`` (at i tau_m z) share;
    the table the second on its first access (a ``cached_property``, ~0.5 ms
    at the defaults, which no caller at y >= y_switch pays). Where |u| >= U =
    max((7 tau_m)^2, 1.35 p_max), p_max the largest live pole (7056, |z| >= 7,
    at the defaults), and the pole sum is w's asymptotic series to 2^-55 there,
    the common part is the Laplace continued fraction in tz; elsewhere S = odd +
    even, the odd-n and even-n sums in descending n from 0j, as in
    ``_refined_sum``. Each equals the same loop over the same constants, closed
    the same way, bit for bit (on CPython up to 3.13; see ``_compile_sums``).
    ``a`` is a plain tuple, so the table is deeply immutable. The repr, == and
    hash cover ``params`` and ``a`` only, and a table pickles as its parameters.
    """

    _fields = __match_args__ = ("params", "a")
    params: SeriesParams
    a: tuple[float, ...]
    _common_part: Callable[[complex, complex], complex]

    def __init__(self, params, a, _common_part, _refined_sum=_COMPILED_ON_FIRST_USE) -> None:
        vars(self).update(params=params, a=a, _common_part=_common_part)
        if _refined_sum is not _COMPILED_ON_FIRST_USE:
            vars(self)["_refined_sum"] = _refined_sum

    # stored in vars(self) on first access, which then shadows it; not __getattr__,
    # which would slow every attribute load of the table ~2.5x on CPython 3.11
    @functools.cached_property
    def _refined_sum(self) -> Callable[[complex, int], tuple[complex, complex]]:
        return _compile_sums(self.params, "_refined_sum")

    def __reduce__(self):
        # compiled functions do not pickle; the build is deterministic, so
        # rebuilding from the parameters restores the table bit for bit
        return build_coefficients, (self.params,)


def _compile_sums(params: SeriesParams, name: str) -> Callable:
    """Generate the table's two functions from the poles n^2 pi^2 and the
    factors c_n, n = 1..N in order, ``_common_part`` and ``_refined_sum``, and
    ``compile`` the one called ``name``.

    Both share the near tier's lines ``odd += c_n / (p_n - u)`` or ``even +=``,
    in descending n (``_refined_sum``'s each behind ``if skip != n:``): past the
    last pole both sums have one sign, the refining part's S' = even - odd
    cancels, and ascending n lost up to 0.26 digits of ``voigt_k`` accuracy.
    One statement per term, never one chained expression, which nests one level
    per term and exhausts the compiler's recursion limit at large N.

    The common part's far tier comes first, from |u| = U = max((7 tau_m)^2,
    1.35 p_max), p_max the largest live pole: ``series._continued_fraction`` in
    tz, its levels times tau_m^2 and without e^{-z^2}, which the pole sum lacks,
    returning the common part itself. From |z| = 7 the fraction is within
    2.5e-16 of w; 1.35 p_max keeps a long table's live poles on the partial
    fractions. Past them the pole sum is w's asymptotic series up to c_{N+1},
    the first omitted factor, and e^{-tau_m^2}, its moments' aliasing: where
    either exceeds 2^-55 (n_terms <= 22 at tau_m = 12) it differs from the
    fraction by about that much, and there is no far tier.

    The constants are complex literals whose repr round-trips exactly, so each
    float-complex operation of a loop over them becomes one complex-complex
    operation with the same operands and rounding (CPython up to 3.13 promoted
    the float to complex(x, 0.0); 3.14's mixed-mode rules can change the sign
    of a zero imaginary part).

    c_n decreases strictly, so once it underflows to 0.0 every later quotient
    is a signed zero, which leaves the 0j-seeded sums unchanged; those terms
    generate no code.
    """
    tau = params.tau_m
    tau_sq = tau * tau
    # the (n^2 pi^2, c_n) of the pole sums with c_n > 0, and their lines in descending n
    poles = [(n * n) * (math.pi * math.pi) for n in range(1, params.n_terms + 1)]
    live = [(p, c) for p in poles if (c := math.exp(-p / tau_sq))]
    terms = [(n, f"{('even', 'odd')[n % 2]} += {complex(c)!r} / ({complex(p)!r} - u)")
             for n, (p, c) in reversed([*enumerate(live, 1)])]
    near = ["    odd = even = 0j", *(f"    {term}" for _, term in terms)]
    plain = ["def _common_part(tz, u):", *near, "    return 1j / tz - 2j * tz * (odd + even)"]
    refined = ["def _refined_sum(u, skip):", near[0],
               *(f"    if skip != {n}: {term}" for n, term in terms), "    return odd, even"]
    n = params.n_terms + 1
    if max(math.exp(-(n * n) * (math.pi * math.pi) / tau_sq), math.exp(-tau_sq)) <= 2.0 ** -55:
        # tau_m^2 >= 38 here, so c_1 > 0.77 and live is not empty
        far = max(_FAR_ABS * _FAR_ABS * tau_sq, 1.35 * live[-1][0])
        plain[1:1] = [f"    if abs(u) >= {far!r}:",
                      *(f"        t = tz - {complex(k * tau_sq)!r} / {'t' if i else 'tz'}"
                        for i, k in enumerate(_LEVELS)),
                      f"        return {complex(0.0, 0.5 * tau / _SQRT_PI)!r} / ((0.5+0j) * t)"]
    namespace: dict = {}
    lines = {"_common_part": plain, "_refined_sum": refined}[name]
    exec(compile("\n".join(lines), f"<sums of {params!r}>", "exec"), namespace)
    return namespace[name]


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

    a = tuple(prefactor * math.exp(-(n * n) * (math.pi * math.pi) / tau_sq)
              for n in range(params.n_terms + 1))
    return CoefficientTable(params, a, _compile_sums(params, "_common_part"))

