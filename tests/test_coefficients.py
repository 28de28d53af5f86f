"""Coefficient table construction and invariants."""

import cmath
import copy
import dataclasses
import math
import pickle
import random
import struct
import sys
import threading
from decimal import Decimal, localcontext

import pytest

from cef import (AccuracyReport, BenchReport, CoefficientTable, EvaluationOutcome, GridSpec,
                 Path, QuadratureSpec, SeriesParams, build_coefficients, w_adaptive,
                 w_refined)
from cef.coefficients import _LEVELS
from cef.fixtures import ReferenceRow
from cef.series import _closing, _continued_fraction
from conftest import loop_parity_sums, loop_terms, ulp_diff

# closed-form values for tau_m = 12, evaluated with mpmath at 60 digits
A0_EXTENDED = 0.29540897515091935   # 2 sqrt(pi) / 12
A1_EXTENDED = 0.2758402332921771    # A0 * exp(-pi^2 / 144)

PARAM_SETS = [
    SeriesParams(),
    SeriesParams(tau_m=6.7, n_terms=40, y_switch=0.5),
    SeriesParams(tau_m=20.0, n_terms=35, y_switch=2.0),
]


def test_default_params():
    p = SeriesParams()
    assert p.tau_m == 12.0
    assert p.n_terms == 23
    assert p.y_switch == 1.0


@pytest.mark.parametrize("kwargs", [
    {"tau_m": 0.0},
    {"tau_m": -3.0},
    {"tau_m": math.inf},
    {"n_terms": 0},
    {"n_terms": -1},
    {"n_terms": 2.5},
    {"y_switch": -0.1},
    {"y_switch": math.nan},
    # bool is an int subclass; True must not quietly become 1.0
    {"tau_m": True},
    {"n_terms": True},
    {"y_switch": True},
    {"y_switch": False},
    # build_coefficients divides by tau_m^2, which is 0.0 or inf here
    {"tau_m": 1e-300},
    {"tau_m": 1e-200},
    {"tau_m": 1e155},
    {"tau_m": 10 ** 155},
    # an int too large for a float is rejected, not an OverflowError
    {"tau_m": 10 ** 400},
    {"y_switch": 10 ** 400},
    {"n_terms": 10 ** 400},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        SeriesParams(**kwargs)


@pytest.mark.parametrize("tau_m", [1e-160, 1e154])
def test_tau_m_with_finite_nonzero_square_accepted(tau_m):
    table = build_coefficients(SeriesParams(tau_m=tau_m))
    assert table.params.tau_m == tau_m


def test_leading_coefficients_match_extended_precision(coeffs):
    # construction uses plain double arithmetic, so allow a couple of ulp
    # against the correctly rounded extended-precision values
    assert ulp_diff(coeffs.a[0], A0_EXTENDED) <= 2
    assert ulp_diff(coeffs.a[1], A1_EXTENDED) <= 2


@pytest.mark.parametrize("params", PARAM_SETS)
def test_closed_form_within_one_ulp(params):
    table = build_coefficients(params)
    tau = params.tau_m
    assert len(table.a) == params.n_terms + 1
    for n, a_n in enumerate(table.a):
        direct = (2.0 * math.sqrt(math.pi) / tau) \
            * math.exp(-(n * n) * (math.pi * math.pi) / (tau * tau))
        assert ulp_diff(a_n, direct) <= 1


@pytest.mark.parametrize("params", PARAM_SETS)
def test_positive_and_strictly_decreasing(params):
    table = build_coefficients(params)
    for n in range(len(table.a) - 1):
        assert table.a[n] > 0
        assert table.a[n] > table.a[n + 1]
    assert table.a[-1] > 0


@pytest.mark.parametrize("params", PARAM_SETS)
def test_ratio_follows_exponent_steps(params):
    # a[n+1]/a[n] = exp(-(2n+1) pi^2 / tau_m^2). The quotient of two
    # exponentials deviates from the directly evaluated step by roughly
    # |x_{n+1}| + |x_n| ulp (argument rounding amplified by exp), so the
    # tight 4-ulp bound applies only while the exponents are O(1).
    table = build_coefficients(params)
    tau_sq = params.tau_m * params.tau_m
    pi_sq = math.pi * math.pi
    for n in range(params.n_terms):
        ratio = table.a[n + 1] / table.a[n]
        expected = math.exp(-(2 * n + 1) * pi_sq / tau_sq)
        arg_budget = ((n + 1) ** 2 + n * n) * pi_sq / tau_sq
        allowed = 4.0 + 2.0 * arg_budget
        assert ulp_diff(ratio, expected) <= allowed, f"n={n}"
        if arg_budget <= 1.0:
            assert ulp_diff(ratio, expected) <= 4.0, f"n={n}"


def test_rebuild_is_bitwise_identical():
    params = SeriesParams()
    t1 = build_coefficients(params)
    t2 = build_coefficients(params)
    assert t1.a == t2.a
    assert t1 == t2


def test_table_is_immutable(coeffs):
    assert isinstance(coeffs.a, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        coeffs.a = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        coeffs.params.tau_m = 13.0


# --- the record contract: repr, ==, hash, pickling and immutability -------

# every parameter record: one with values off the defaults, its repr, and
# the class defaults in field order
PARAMETER_RECORDS = [
    (SeriesParams(6, n_terms=40, y_switch=0),
     "SeriesParams(tau_m=6.0, n_terms=40, y_switch=0.0)", (12.0, 23, 1.0)),
    (GridSpec(1, 2.5, ny=3, spacing="logarithmic"),
     "GridSpec(x_min=1, x_max=2.5, y_min=0.0001, y_max=15.0, nx=20, ny=3, "
     "spacing='logarithmic')", (0.01, 15.0, 1e-4, 15.0, 20, 20, "linear")),
    (QuadratureSpec(10.0, max_subdivisions=7),
     "QuadratureSpec(tau_max=10.0, abs_tol=1e-14, max_subdivisions=7)", (50.0, 1e-14, 2 ** 16)),
]


def test_params_record_contract():
    assert repr(SeriesParams()) == "SeriesParams(tau_m=12.0, n_terms=23, y_switch=1.0)"
    assert SeriesParams(12, 23, 1) == SeriesParams()
    assert SeriesParams() != SeriesParams(y_switch=2.0)
    for p, shown, defaults in PARAMETER_RECORDS:
        kind = type(p)
        values = tuple(getattr(p, name) for name in kind._fields)
        assert repr(p) == shown
        assert kind.__match_args__ == kind._fields
        assert tuple(getattr(kind, name) for name in kind._fields) == defaults
        assert kind() == kind(*defaults) != p
        assert hash(p) == hash(values)
        assert kind(*values) == p and hash(kind(*values)) == hash(p)
        assert p != values
        assert p.__eq__(values) is NotImplemented
        copies = [pickle.loads(pickle.dumps(p, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for restored in (*copies, copy.copy(p), copy.deepcopy(p)):
            assert type(restored) is kind
            assert restored == p and repr(restored) == repr(p)
        first = kind._fields[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, first, values[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(p, first)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.extra = 1
        assert getattr(p, first) == values[0] and not hasattr(p, "extra")


def test_table_record_contract():
    params = SeriesParams(n_terms=2)
    table = build_coefficients(params)
    assert repr(table) == f"CoefficientTable(params={params!r}, a={table.a!r})"
    assert hash(table) == hash((table.params, table.a))
    # the compiled sums take no part in == or hash
    bare = CoefficientTable(params=params, a=table.a, _common_part=None, _refined_sum=None)
    assert bare == table and hash(bare) == hash(table)
    assert CoefficientTable(params, (0.0,), None, None) != table
    assert table != (params, table.a)
    assert table.__eq__(params) is NotImplemented
    assert table.__reduce__() == (build_coefficients, (params,))
    assert copy.copy(table) == table
    with pytest.raises(dataclasses.FrozenInstanceError):
        del table.a


def test_refined_sum_compiled_on_first_access_keeps_the_record_contract():
    # a built table compiles _refined_sum on its first access and is then
    # ==, hash, repr and pickle-equal to a fresh one; one passed in is kept
    params = SeriesParams()
    table, fresh = build_coefficients(params), build_coefficients(params)
    assert "_refined_sum" not in vars(table)
    table._refined_sum(2.0 + 1.0j, 0)
    assert "_refined_sum" in vars(table) and "_refined_sum" not in vars(fresh)
    assert table == fresh and hash(table) == hash(fresh) and repr(table) == repr(fresh)
    assert pickle.dumps(table) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(table)) == fresh
    assert CoefficientTable(params, table.a, None, None)._refined_sum is None
    assert CoefficientTable(params, table.a, None, _refined_sum=len)._refined_sum is len
    with pytest.raises(AttributeError, match="_pole_sum"):
        table._pole_sum
    assert not hasattr(table, "extra") and "extra" not in vars(table)


def test_threads_share_the_first_refined_sum_compile():
    # 8 threads make the first w_refined call on one fresh table at once, so
    # they race for its _refined_sum, and each gets the bits of a warm table
    points = [complex(0.37 * k, 0.05 + 0.11 * k) for k in range(8)]
    want = [w_refined(z, build_coefficients(SeriesParams())) for z in points]
    table = build_coefficients(SeriesParams())
    barrier = threading.Barrier(len(points), timeout=30)
    got = [None] * len(points)

    def first_call(i):
        barrier.wait()
        got[i] = w_refined(points[i], table)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(len(points))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [(v.real.hex(), v.imag.hex()) for v in got] == [
        (v.real.hex(), v.imag.hex()) for v in want]


def test_evaluation_outcome_contract(coeffs):
    outcome = w_adaptive(1 + 0.5j, coeffs)
    assert type(outcome) is EvaluationOutcome and isinstance(outcome, tuple)
    assert EvaluationOutcome._fields == ("value", "path")
    assert outcome == (outcome.value, outcome.path)
    made = EvaluationOutcome(value=1j, path=Path.REFINED)
    assert made == EvaluationOutcome(1j, Path.REFINED) == (1j, Path.REFINED)
    assert repr(made) == "EvaluationOutcome(value=1j, path=<Path.REFINED: 'refined'>)"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(outcome, protocol))
        assert type(restored) is EvaluationOutcome and restored == outcome
    # every other result is a namedtuple too, its fields in this order
    for kind, fields in (
            (AccuracyReport, ("grid", "method", "reference", "max_rel_error", "argmax_point",
                              "per_point")),
            (BenchReport, ("method", "points_evaluated", "wall_time", "throughput", "checksum")),
            (ReferenceRow, ("x", "y", "refined", "cr", "reference", "cr_status"))):
        made = kind(*fields)
        assert kind._fields == fields and made == fields
        assert made._asdict() == dict(zip(fields, fields))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(made, protocol))
            assert type(restored) is kind and restored == made


# --- compiled pole sums against the loops they replace --------------------

# at tau_m = 0.1 even c_1 = exp(-pi^2 / 0.01) underflows to 0.0
SUM_PARAM_SETS = PARAM_SETS + [SeriesParams(n_terms=1), SeriesParams(n_terms=2000),
                               SeriesParams(tau_m=0.1)]


def far_tier(params):
    """U, where the common part's far tier starts, or None where the table has
    none: where c_{N+1}, the first factor the table omits, or e^{-tau_m^2}
    exceeds 2^-55. U = max((7 tau_m)^2, 1.35 p_max), p_max the largest live pole."""
    tau_sq = params.tau_m * params.tau_m
    omitted = loop_terms(SeriesParams(params.tau_m, params.n_terms + 1))[-1][1]
    if max(omitted, math.exp(-tau_sq)) > 2.0 ** -55:
        return None
    return max(49.0 * tau_sq, 1.35 * max(p for p, c in loop_terms(params) if c))


def loop_fraction(tz, tau):
    """The Laplace continued fraction in tz = tau_m z as a loop over _LEVELS:
    t = tz - k tau_m^2 / t (t = tz at first), then i tau_m / (2 sqrt(pi)) over t/2."""
    t = tz
    for k in _LEVELS:
        t = tz - complex(k * (tau * tau)) / t
    return complex(0.0, 0.5 * tau / math.sqrt(math.pi)) / ((0.5+0j) * t)


def loop_common_part(tz, u, terms, tau, far=None):
    if far is not None and abs(u) >= far:
        return loop_fraction(tz, tau)
    odd, even = loop_parity_sums(u, terms)
    return 1j / tz - 2j * tz * (odd + even)


def loop_ascending_common(tz, u, terms):
    """The common part from partial fractions in ascending n: the near tier
    as it was when the far tier replaced it."""
    common = 0j
    for n2pi2, c_n in terms:
        common += c_n / (n2pi2 - u)
    return 1j / tz - 2j * tz * common


def bits(value: complex) -> bytes:
    return struct.pack("<dd", value.real, value.imag)


def sample_arguments(params):
    """About 10^3 pairs (tz, u) = (tau_m z, (tau_m z)^2) with Im z >= 0:
    scattered points, points next to the poles tau_m x = n pi at small y,
    the imaginary axis, large |u|, and signed zeros of u (with tz = i)."""
    tau = params.tau_m
    rng = random.Random(20121016)
    zs = [complex(15.0 * rng.random(), 15.0 * (1.0 - rng.random())) for _ in range(600)]
    for n in range(1, min(params.n_terms, 40) + 1):
        for delta in (0.0, 1e-12, -1e-12, 1e-6, -1e-6):
            for y in (1e-12, 1e-4):
                zs.append(complex(n * math.pi / tau + delta, y))
    zs += [complex(0.0, y) for y in (1e-8, 0.5, 1.0, 7.0)]
    zs += [complex(1e3, 1e3), complex(1e6, 1.0), complex(3.0, 1e5)]
    args = [(tau * z, (tau * z) * (tau * z)) for z in zs]
    args += [(1j, u) for u in (complex(-1.0, 0.0), complex(-1.0, -0.0), complex(-0.0, 1.0),
                               complex(-2.5, -0.0))]
    far = far_tier(params)
    if far is not None:
        # on both sides of the far tier's threshold |u| = U
        below = math.nextafter(far, 0.0)
        args += [(cmath.sqrt(u), u) for u in (complex(far), complex(-far, -0.0),
                                              complex(0.0, far), complex(below),
                                              complex(0.0, -below))]
    return args


@pytest.mark.parametrize("params", SUM_PARAM_SETS, ids=repr)
def test_compiled_sums_equal_loops_bitwise(params):
    # _refined_sum too, with no term skipped and without one live term
    table = build_coefficients(params)
    terms = loop_terms(params)
    far = far_tier(params)
    live_skip = sum(1 for _, c_n in terms if c_n) // 2 + 1
    for tz, u in sample_arguments(params):
        want = loop_common_part(tz, u, terms, params.tau_m, far)
        assert bits(table._common_part(tz, u)) == bits(want), u
        for skip in (0, live_skip):
            got, want = table._refined_sum(u, skip), loop_parity_sums(u, terms, skip)
            assert [bits(part) for part in got] == [bits(part) for part in want], (u, skip)


# the complex literals that close each compiled sum (1j and 2j, and the far
# tier's halving constant 0.5+0j), besides the live terms' constants and the
# far tier's fraction; 0j seeds every sum, and _refined_sum returns its two
CLOSING_LITERALS = {"_common_part": {1j, 2j, 0.5+0j}, "_refined_sum": set()}


def complex_literals(fn):
    return {c for c in fn.__code__.co_consts if isinstance(c, complex) and c}


def fraction_literals(params):
    """The far tier's literals: the 14 levels k tau_m^2 and the numerator
    i tau_m / (2 sqrt(pi)) in _common_part; _refined_sum has no far tier."""
    tau = params.tau_m
    fraction = {complex(k * (tau * tau)) for k in _LEVELS}
    fraction.add(complex(0.0, 0.5 * tau / math.sqrt(math.pi)))
    return {"_common_part": fraction if far_tier(params) else set(), "_refined_sum": set()}


@pytest.mark.parametrize("params", SUM_PARAM_SETS, ids=repr)
def test_poles_are_the_loop_poles(params):
    # each live pole n^2 pi^2 of the loops, where c_n > 0, is a complex
    # literal of both compiled sums; their only other literals are the
    # far tier's fraction and the closing constants
    table = build_coefficients(params)
    pole_fns = (table._common_part, table._refined_sum)
    pole_literals = [complex_literals(fn) for fn in pole_fns]
    live = set()
    for n, (n2pi2, c_n) in enumerate(loop_terms(params), start=1):
        if c_n:
            live |= {complex(n2pi2), complex(c_n)}
            assert all(complex(n2pi2) in literals for literals in pole_literals), n
    fraction = fraction_literals(params)
    for fn, literals in zip(pole_fns, pole_literals):
        assert fraction[fn.__name__] <= literals, fn.__name__
        assert literals - live - fraction[fn.__name__] <= CLOSING_LITERALS[fn.__name__], \
            fn.__name__


@pytest.mark.parametrize("params, live_terms", [
    (SeriesParams(), 23),
    (SeriesParams(n_terms=2000), 104),   # c_n is 0.0 from n = 105 at tau_m = 12
    (SeriesParams(tau_m=0.1), 0),
    (SeriesParams(n_terms=15), 15),   # c_16 = 2.4e-8: the pole sum is shorter, no far tier
    (SeriesParams(tau_m=1e4, n_terms=600), 600),   # c_601 = 0.96: no far tier
])
def test_underflowed_terms_generate_no_code(params, live_terms):
    # 2 literals per live term, and the 14 levels and the numerator of the
    # common part's far tier at the defaults and at n_terms = 2000, else no
    # far tier; _refined_sum has none
    table = build_coefficients(params)
    fraction = len(fraction_literals(params)["_common_part"])
    assert fraction == {23: 15, 104: 15}.get(live_terms, 0)
    for fn in (table._common_part, table._refined_sum):
        literals = complex_literals(fn) - CLOSING_LITERALS[fn.__name__]
        far = 0 if fn is table._refined_sum else fraction
        assert len(literals) == 2 * live_terms + far, fn.__name__


# SUM_PARAM_SETS, (20, 35) among them with c_36 = 1.3e-14, and tables on both
# sides of the far tier's rule: c_21 = 7.5e-14 at (12, 20), e^{-tau_m^2} =
# 2.0e-17 at (6.2, 12) and 2.3e-16 at (6, 11)
RULE_PARAM_SETS = SUM_PARAM_SETS + [SeriesParams(n_terms=20), SeriesParams(6.2, 12),
                                    SeriesParams(6.0, 11)]


@pytest.mark.parametrize("params", RULE_PARAM_SETS, ids=repr)
def test_far_tier_rules(params):
    # the far tier exists exactly where c_{N+1} and e^{-tau_m^2} are at most
    # 2^-55, and starts at U (7056, |z| = 7, at the defaults): the next float
    # below is on the partial fractions. There the common part is within
    # 4.4e-16 of a 40-digit pole sum from U out to |z| = 1e3, both half-planes.
    table = build_coefficients(params)
    tau, far = params.tau_m, far_tier(params)
    assert ("abs" in table._common_part.__code__.co_names) == (far is not None)
    assert (far == 7056.0) == (params == SeriesParams())
    if far is None:
        return
    terms = loop_terms(params)
    for edge in (far, math.nextafter(far, 0.0)):
        for u in (complex(edge), complex(0.0, edge)):
            tz = cmath.sqrt(u)
            want = loop_fraction(tz, tau) if edge == far else loop_common_part(tz, u, terms, tau)
            assert bits(table._common_part(tz, u)) == bits(want), u
    live = [(n2pi2, c_n) for n2pi2, c_n in terms if c_n]
    low = math.sqrt(far) / tau
    rng = random.Random(38)
    worst = 0.0
    with localcontext() as context:
        context.prec = 40
        for _ in range(300):
            tz = tau * cmath.rect(low * (1e3 / low) ** rng.random(), math.pi * rng.uniform(-1, 1))
            u = tz * tz
            # the common part does not depend on e^{i tz}: 0j drops the refining part
            want = exact_parts(tz, u, 0j, live)[0]
            worst = max(worst, relative_error(table._common_part(tz, u), want))
    assert worst <= 4.4e-16, worst


def test_far_tier_at_the_defaults():
    # U = (7 tau_m)^2 = 7056 wins over 1.35 p_max = 7048.4, so the far tier
    # starts at |z| = 7, the radius where w_adaptive takes the continued
    # fraction, and all 23 poles lie inside it; one term fewer (c_23 = 1.8e-16)
    # has no far tier. There the common part is series._continued_fraction
    # in z, its levels scaled by tau_m^2, to within 4.4e-16 (3.8e-16 seen).
    params = SeriesParams()
    terms = loop_terms(params)
    assert far_tier(params) == 7056.0 == (7.0 * params.tau_m) ** 2
    assert 1.35 * terms[-1][0] == pytest.approx(7048.4, abs=0.05)
    assert all(c > 0.0 and p < 7056.0 for p, c in terms) and len(terms) == 23
    assert far_tier(SeriesParams(n_terms=22)) is None
    assert "abs" not in build_coefficients(SeriesParams(n_terms=22))._common_part.__code__.co_names
    table = build_coefficients(params)
    assert 7056.0 in table._common_part.__code__.co_consts
    rng = random.Random(44)
    for _ in range(200):
        z = cmath.rect(7.0 * 10.0 ** (3 * rng.random()), math.pi * rng.random())
        tz = params.tau_m * z
        want = _continued_fraction(z)
        assert abs(table._common_part(tz, tz * tz) - want) <= 4.4e-16 * abs(want), z


@pytest.mark.parametrize("params", PARAM_SETS)
def test_table_survives_pickle_round_trip(params):
    table = build_coefficients(params)
    for restored in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert restored == table
        assert restored.params == params
        rng = random.Random(5)
        for _ in range(200):
            z = complex(15.0 * rng.random(), 3.0 * (1.0 - rng.random()))
            assert w_adaptive(z, restored) == w_adaptive(z, table), z


def far_arguments(params, count=2000):
    """About ``count`` (tz, u) with Im z >= 0 and |u| >= U: just above U at
    every angle, on the imaginary axis with both signs of zero (where u has a
    signed zero imaginary part), and log-uniform in |z| up to 1e153, or to
    where (tau_m z)^2 would overflow."""
    tau = params.tau_m
    low = math.sqrt(far_tier(params)) / tau
    high = min(1e153, 0.5 * math.sqrt(sys.float_info.max) / tau)
    rng = random.Random(31)
    zs = []
    for _ in range(-(-count // 3)):
        zs.append(cmath.rect(low * (1.0 + 10.0 ** rng.uniform(-12, -2)), math.pi * rng.random()))
        zs.append(complex(rng.choice((0.0, -0.0)), low * (high / low) ** rng.random()))
        zs.append(cmath.rect(low * (high / low) ** rng.random(), math.pi * rng.random()))
    return [(tau * z, (tau * z) * (tau * z)) for z in zs]


def exact_parts(tz, u, e_itz, terms):
    """The common part and the full route at (tz, u, e_itz) from the terms
    (n^2 pi^2, c_n), to 40 digits: decimal arithmetic on (re, im) pairs,
    from the doubles' exact values."""
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
    tz, u, e_itz = ((Decimal(c.real), Decimal(c.imag)) for c in (tz, u, e_itz))
    sums = [[0, 0], [0, 0]]   # S and S'
    for n, (n2pi2, c_n) in enumerate(terms, start=1):
        # c_n / (p_n - u) = c_n (p_n - u_re + i u_im) / |p_n - u|^2
        d = Decimal(n2pi2) - u[0]
        s = Decimal(c_n) / (d * d + u[1] * u[1])
        q = (d * s, u[1] * s)
        for acc, sign in zip(sums, (1, -1 if n % 2 else 1)):
            acc[0] += sign * q[0]
            acc[1] += sign * q[1]
    norm = tz[0] * tz[0] + tz[1] * tz[1]
    inverse = (tz[0] / norm, -tz[1] / norm)
    common = mul((0, 1), inverse)
    common = tuple(a - 2 * b for a, b in zip(common, mul((0, 1), mul(tz, sums[0]))))
    bracket = tuple(a - 2 * b for a, b in zip(inverse, mul(tz, sums[1])))
    refining = mul((0, -1), mul(e_itz, bracket))
    return common, (common[0] + refining[0], common[1] + refining[1])


def relative_error(got, want):
    """|got - want| / |want| for a complex got and a decimal pair want."""
    dr, di = Decimal(got.real) - want[0], Decimal(got.imag) - want[1]
    return float(((dr * dr + di * di) / (want[0] * want[0] + want[1] * want[1])).sqrt())


@pytest.mark.parametrize("params", SUM_PARAM_SETS, ids=repr)
def test_far_tier_against_40_digits(params):
    # where the table has a far tier, the continued fraction there is within
    # 1e-15 of a 40-digit pole sum over the same constants, and no farther off
    # than the ascending partial fractions. The full route, which closes
    # the near tier's descending parity sums (_refined_sum at skip 0) at
    # every |u|, is within 1e-15 too.
    if far_tier(params) is None:
        assert "abs" not in build_coefficients(params)._common_part.__code__.co_names
        return
    table = build_coefficients(params)
    terms = [(n2pi2, c_n) for n2pi2, c_n in loop_terms(params) if c_n]
    worst = {"common": 0.0, "ascending": 0.0, "full": 0.0}
    with localcontext() as context:
        context.prec = 40
        for tz, u in far_arguments(params):
            e_itz = cmath.exp(1j * tz)
            common, full = exact_parts(tz, u, e_itz, terms)
            lead = 1j * ((1+0j) - e_itz) / tz
            for key, got, want in (
                    ("common", table._common_part(tz, u), common),
                    ("ascending", loop_ascending_common(tz, u, terms), common),
                    ("full", _closing(lead, tz, e_itz, *table._refined_sum(u, 0)), full)):
                worst[key] = max(worst[key], relative_error(got, want))
    assert worst["common"] <= 1e-15 and worst["common"] <= worst["ascending"], worst
    assert worst["full"] <= 1e-15, worst
