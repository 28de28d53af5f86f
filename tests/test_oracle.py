"""Quadrature oracle: the ground-truth anchor for every series kernel."""

import cmath
import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from cef import (ConvergenceError, DomainError, QuadratureSpec, SeriesParams,
                 build_coefficients, oracle, w_finite_quadrature, w_quadrature, w_refined)
from cef.fixtures import reference_rows
from conftest import mp_w, rel_error

ROWS = {(row.x, row.y): row for row in reference_rows()}

# mpmath (60 digits) spot truths
W_SPOTS = {
    complex(0.5, 0.0001): complex(0.7787358415658242, 0.47884730085860905),
    complex(7.7, 0.3): complex(0.0029254649541105558, 0.0737885699898937),
    complex(0.01, 15.0): complex(0.037529589891034616, 2.4909743500941303e-05),
}
K_0_1 = 0.427583576155807  # e * erfc(1), mpmath


@pytest.mark.parametrize("kwargs", [
    {"tau_max": 0.0},
    {"tau_max": -1.0},
    {"abs_tol": 0.0},
    {"abs_tol": -1e-10},
    {"max_subdivisions": 0},
    # no field may be a bool (True would become 1), and the panel budget is an int
    {"max_subdivisions": True},
    {"max_subdivisions": 16.0},
    {"tau_max": True},
    {"abs_tol": True},
    # an int too large for a float is rejected, not an OverflowError
    {"tau_max": 10 ** 400},
    {"max_subdivisions": 10 ** 400},
])
def test_invalid_spec_rejected(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_domain_errors(coeffs, qspec):
    with pytest.raises(DomainError):
        w_finite_quadrature(1.0 + 0j, coeffs, qspec)
    # the series kernels' rule, word for word; non-finite z is rejected up
    # front, before any panel work
    for z, shown in ((complex(math.nan, 1.0), "a finite argument, got z = (nan+1j)"),
                     (complex(math.inf, 1.0), "a finite argument, got z = (inf+1j)"),
                     (complex(-math.inf, 1.0), "a finite argument, got z = (-inf+1j)"),
                     (complex(1.0, math.inf), "a finite argument, got z = (1+infj)"),
                     (complex(1.0, -math.inf), "a finite argument, got z = (1-infj)"),
                     (complex(1.0, 0.0), "Im z > 0, got z = (1+0j)"),
                     (complex(1.0, -0.0), "Im z > 0, got z = (1-0j)"),
                     (complex(1.0, -1.0), "Im z > 0, got z = (1-1j)")):
        with pytest.raises(DomainError) as caught:
            w_quadrature(z, qspec)
        assert str(caught.value) == f"w_quadrature requires {shown}"
        if not cmath.isfinite(z):
            with pytest.raises(DomainError, match="finite"):
                w_finite_quadrature(z, coeffs, qspec)


def test_matches_reference_row(qspec):
    got = w_quadrature(2.5 + 2.5j, qspec)
    assert rel_error(got, ROWS[(2.5, 2.5)].refined) <= 1e-12


def test_matches_independent_truth(qspec):
    for z, want in W_SPOTS.items():
        assert rel_error(w_quadrature(z, qspec), want) <= 1e-13, z


def test_pure_imaginary_argument(qspec):
    got = w_quadrature(1j, qspec)
    assert abs(got.real - K_0_1) <= 1e-12 * K_0_1
    assert got.imag == 0.0  # the sine factor vanishes identically at x = 0


@pytest.mark.parametrize("y", [1e-4, 1e-2, 1.0, 10.0])
@pytest.mark.parametrize("x", [100.0, 300.0, 1000.0, 1500.0])
def test_large_x_matches_mpmath(x, y, qspec):
    # a panel's phase e^{i x (k + 1/2) w} shares one angle among its 20
    # nodes: rounded as one product it cost up to 8.9e-14 at x = 1000.
    # README states the 6.0e-15 bound for this grid.
    pytest.importorskip("mpmath")
    z = complex(x, y)
    assert rel_error(w_quadrature(z, qspec), mp_w(z, 30)) <= 6.0e-15


def _log_nodes(lo, hi, n):
    step = (math.log10(hi) - math.log10(lo)) / (n - 1)
    return [10.0 ** (math.log10(lo) + step * k) for k in range(n)]


def _power_of_two_at_or_above(width):
    power = 1.0
    while power < width:
        power *= 2.0
    while 0.5 * power >= width:
        power *= 0.5
    return power


def _accepted_width(x, y):
    # the widest panel w_quadrature accepts at x + iy
    return _power_of_two_at_or_above(
        min(0.5, math.pi / (4.0 * max(1.0, abs(x))), 2.0 * math.pi / y))


def _direct_quadrature(z, spec):
    # the defining integral as one complex exponential per node, with
    # w_quadrature's panels, tail cutoff and stopping rule: levels of width
    # 4r, r, r/2, r/4, ... for the accepted width r
    np = pytest.importorskip("numpy")
    x, y = z.real, z.imag
    nodes, weights = oracle._gauss_legendre()
    upper = min(spec.tau_max, oracle._DECAY_CUTOFF, oracle._tail_cutoff(y, spec.abs_tol))
    accepted = _accepted_width(x, y)
    previous = None
    for width in itertools.chain([4.0 * accepted],
                                 (accepted * 0.5 ** k for k in itertools.count())):
        n_panels = math.ceil(upper / width)
        half = 0.5 * width
        mids = width * np.arange(n_panels) + half
        t = (mids[:, None] + half * nodes[None, :]).ravel()
        panels = np.exp(t * complex(-y, x) - 0.25 * t * t).reshape(n_panels, -1) @ weights
        current = half * complex(math.fsum(panels.real.tolist()),
                                 math.fsum(panels.imag.tolist()))
        if previous is not None and abs(current - previous) <= spec.abs_tol:
            return current / math.sqrt(math.pi)
        previous = current


def test_factored_phase_matches_direct_integrand(qspec):
    for x in _log_nodes(0.01, 15.0, 10):
        for y in _log_nodes(1e-4, 15.0, 10):
            z = complex(x, y)
            assert rel_error(w_quadrature(z, qspec), _direct_quadrature(z, qspec)) <= 5e-15, z


def test_conjugate_symmetry_is_exact(qspec):
    rng = random.Random(18)
    for _ in range(200):
        x = 10.0 ** rng.uniform(-2.0, 3.0)
        z = complex(x, 10.0 ** rng.uniform(-4.0, math.log10(15.0)))
        assert w_quadrature(complex(-x, z.imag), qspec) == w_quadrature(z, qspec).conjugate(), z


@pytest.mark.parametrize("n_panels",
                         [1, 2, 21, 2 ** 16, 2 ** 22 + 1, 2 ** 26, 2 ** 26 + 1, 2 ** 40])
def test_phase_split_angles_are_exact(n_panels):
    rng = random.Random(n_panels)
    for _ in range(50):
        x = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 4.0)
        width = _power_of_two_at_or_above(math.pi / (4.0 * max(1.0, abs(x))))
        width *= 2.0 ** -rng.randrange(6)
        c_hi, c_lo = oracle._phase_split(x * width, n_panels)
        exact = Fraction(x) * Fraction(width)
        assert Fraction(c_hi) + Fraction(c_lo) == exact
        assert abs(c_hi) <= abs(exact) and c_hi * exact >= 0  # cut toward zero
        assert oracle._phase_split(-x * width, n_panels) == (-c_hi, -c_lo)
        for k in {0, 1, n_panels // 2, n_panels - 1, rng.randrange(n_panels)}:
            assert Fraction(c_hi * (k + 0.5)) == Fraction(c_hi) * Fraction(2 * k + 1, 2)


def _scalar_phase_split(c, n_panels):
    # _phase_split one float at a time, from math's frexp and ldexp
    bits = 53 - max(27, (2 * n_panels - 1).bit_length())
    mantissa, exponent = math.frexp(c)
    c_hi = math.ldexp(math.trunc(math.ldexp(mantissa, bits)), exponent - bits)
    return c_hi, c - c_hi


@pytest.mark.parametrize("n_panels", [1, 2 ** 26, 2 ** 26 + 1, 2 ** 40])
def test_phase_split_of_an_array_splits_each_element(n_panels):
    # the sign of a zero counts, so the parts are compared as float.hex
    np = pytest.importorskip("numpy")
    rng = random.Random(n_panels)
    smallest_normal = sys.float_info.min
    cs = [0.0, smallest_normal, 5e-324, 1e-310, 0.3 * smallest_normal, sys.float_info.max]
    cs += [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(40)]
    cs += [-c for c in cs]
    c_hi, c_lo = oracle._phase_split(np.array(cs), n_panels)
    for c, hi, lo in zip(cs, c_hi.tolist(), c_lo.tolist()):
        assert (hi.hex(), lo.hex()) == tuple(map(float.hex, _scalar_phase_split(c, n_panels))), c


@pytest.mark.parametrize("x, y", [(0.05, 1.0), (3.0, 1e-4), (15.0, 0.5), (1000.0, 10.0)])
def test_panel_width_is_rounded_up_to_a_power_of_two(x, y, qspec):
    # x w is exact only for a power-of-two width, so every width in the
    # octave below a power of two gives that power's panels and bits
    np = pytest.importorskip("numpy")

    def envelope(t):
        return np.exp(t * (-0.25 * t - y))

    upper = oracle._tail_cutoff(y, qspec.abs_tol)
    asked = math.pi / (4.0 * max(1.0, x))
    power = _power_of_two_at_or_above(asked)
    want = oracle._refine_panels(envelope, [x], upper, [power], qspec)[0]
    for width in (asked, 0.5 * power * (1.0 + 2.0 ** -52), math.nextafter(power, 0.0)):
        assert oracle._refine_panels(envelope, [x], upper, [width], qspec)[0] == want, width


def _bits(value):
    return value.real.hex(), value.imag.hex()


@pytest.mark.parametrize("xs, ys, abs_tol", [
    # the box perfbench's oracle_scan samples
    (_log_nodes(0.01, 15.0, 12), _log_nodes(1e-4, 15.0, 10), 1e-14),
    # negative x, and x = 0 between them
    ([-15.0 + 2.5 * k for k in range(13)], [0.5], 1e-14),
    # above y = 16 the first width is set by y, not by x
    (_log_nodes(0.01, 15.0, 12), [17.0, 100.0, 1e4], 1e-14),
    (_log_nodes(0.01, 15.0, 12), [1e-4, 1.0], 1e-6),
    (_log_nodes(0.01, 15.0, 12), [1e-4, 1.0], 1e-15),
    # a width class per octave of x, up to ~2^15 panels a level
    (_log_nodes(1.0, 1000.0, 16), [1e-2, 10.0], 1e-14),
], ids=["box", "negative_x", "large_y", "loose_tol", "tight_tol", "large_x"])
def test_row_matches_single_nodes_bit_for_bit(xs, ys, abs_tol):
    # a row integrates its nodes together, on one schedule over their
    # panel widths; each value must keep the bits of the node integrated alone
    spec = QuadratureSpec(abs_tol=abs_tol)
    for y in ys:
        row = oracle._quadrature_row(xs, y, spec)
        alone = [w_quadrature(complex(x, y), spec) for x in xs]
        assert list(map(_bits, row)) == list(map(_bits, alone)), y


# float.hex parts of w_quadrature and w_finite_quadrature, and SHA-256
# digests of 32-node rows shaped like perfbench's oracle_scan, recorded
# while a row was still integrated one width group at a time
PINNED_BITS = {
    0.05 + 1j: ("0x1.b5735c8feec3ep-2", "0x1.bf4e648f0646ap-7"),
    3 + 1j: ("0x1.0b8aa754dca4dp-4", "0x1.642f49271beafp-3"),
    15 + 0.01j: ("0x1.a786bc64610c2p-16", "0x1.34cfdad08ab97p-5"),
    1000 + 10j: ("0x1.7a957c6b424bfp-18", "0x1.27c4b5d21c258p-11"),
    -7 + 0.3j: ("0x1.d273126776499p-9", "-0x1.4cf6b2e4e75f3p-4"),
    1 + 30j: ("0x1.339c6a5a3b257p-6", "0x1.47c156cf5b112p-11"),
}
PINNED_FINITE_1_1J = ("0x1.380edd6ce5536p-2", "0x1.aa6eb0cfe97c7p-3")
PINNED_ROWS = {
    1e-4: "270cbde73f3e22d3da0c42b9dbf9501d93507b2a99a089cc9657b8e212932ff9",
    1.0: "8df919f7bc2c7495a8c9f8fb7801563a09d598472b6ce67ed08754185524b71d",
}


def _row_sha256(row):
    text = "".join(f"{real} {imag}\n" for real, imag in map(_bits, row))
    return hashlib.sha256(text.encode()).hexdigest()


def test_values_keep_their_pinned_bits(coeffs, qspec):
    for z, want in PINNED_BITS.items():
        assert _bits(w_quadrature(z, qspec)) == want, z
    assert _bits(w_finite_quadrature(1 + 1j, coeffs, qspec)) == PINNED_FINITE_1_1J
    xs = _log_nodes(0.01, 15.0, 32)
    for y, want in PINNED_ROWS.items():
        assert _row_sha256(oracle._quadrature_row(xs, y, qspec)) == want, y


# SHA-256 digests, recorded as for PINNED_ROWS, of a row whose smallest
# |x| are subnormal or the smallest normal, so that a level splits
# subnormal products x w
TINY_XS = [5e-324, 1e-310, 2.2250738585072014e-308, -5e-324, 0.0, -0.0, 0.5, 3.0]
PINNED_TINY_ROWS = {
    1e-4: "9e64db3a72d30d5f6d59e78de19bb29e34b188b254e5f6b79f3b7f07789bfeb1",
    1.0: "7647ec61c5e8dd9b9aa97f3cb4aa598ebee4f0361c50fde2107cfc4bed6e910c",
}


@pytest.mark.parametrize("y", sorted(PINNED_TINY_ROWS))
def test_row_of_tiny_x_keeps_its_bits(y, qspec):
    row = oracle._quadrature_row(TINY_XS, y, qspec)
    alone = [w_quadrature(complex(x, y), qspec) for x in TINY_XS]
    assert list(map(_bits, row)) == list(map(_bits, alone))
    assert _row_sha256(row) == PINNED_TINY_ROWS[y]


def test_row_lists_every_unconverged_node():
    # 40 panels a level: |x| <= 1.2 converges, |x| of 6 and 20 run out in
    # their own groups; the row must name every node that did not converge,
    # in order, across groups that interleave
    starved = QuadratureSpec(max_subdivisions=40)
    xs = [0.5, 20.0, 0.01, 6.0, -0.7, -6.0, 1.2, -20.0]
    want = []
    for i, x in enumerate(xs):
        try:
            w_quadrature(complex(x, 1.0), starved)
        except ConvergenceError:
            want.append(i)
    assert want == [1, 3, 5, 7]
    with pytest.raises(ConvergenceError) as caught:
        oracle._quadrature_row(xs, 1.0, starved)
    assert caught.value.unconverged == want


def test_blocks_of_a_level_change_no_bit(qspec, monkeypatch):
    # a level splits its pending x into blocks of at most _BLOCK (x, panel)
    # entries, one x a block from 64 panels on here
    xs = _log_nodes(0.01, 15.0, 12)
    whole = oracle._quadrature_row(xs, 0.3, qspec)
    monkeypatch.setattr(oracle, "_BLOCK", 64)
    assert list(map(_bits, oracle._quadrature_row(xs, 0.3, qspec))) == list(map(_bits, whole))


@pytest.mark.parametrize("y", [0.1, 1.0])
def test_nodes_leave_a_group_at_their_own_level(y, qspec):
    # one width for all, on which the nodes converge at different levels;
    # each must stop where it stops when integrated alone
    np = pytest.importorskip("numpy")
    levels = []

    def envelope(t):
        levels.append(t.shape[0])
        return np.exp(t * (-0.25 * t - y))

    upper = oracle._tail_cutoff(y, qspec.abs_tol)
    xs = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, -3.0]
    alone, stops = [], []
    for x in xs:
        levels.clear()
        alone.append(oracle._refine_panels(envelope, [x], upper, [8.0], qspec)[0])
        stops.append(len(levels))
    assert min(stops) < max(stops)
    levels.clear()
    together = oracle._refine_panels(envelope, xs, upper, [8.0] * len(xs), qspec)
    assert len(levels) == max(stops)  # one envelope a level for the group
    assert list(map(_bits, together)) == list(map(_bits, alone))


def _record_envelope_panels(monkeypatch):
    """The list to which every envelope evaluation of ``_refine_panels``
    from here on appends its level's panel count."""
    pytest.importorskip("numpy")
    refine = oracle._refine_panels
    panels = []

    def recording(envelope, xs, upper, widths, spec):
        def instrumented(t):
            panels.append(t.shape[0])
            return envelope(t)
        return refine(instrumented, xs, upper, widths, spec)

    monkeypatch.setattr(oracle, "_refine_panels", recording)
    return panels


def test_first_level_is_four_times_the_accepted_width(qspec, monkeypatch):
    # at x = 15, y = 0.1 the accepted width is 1/16 (15/16 radians of
    # e^{i x tau} a panel); the stopping test compares it with a level of
    # panels 1/4 wide, and accepts it there
    panels = _record_envelope_panels(monkeypatch)
    w_quadrature(15.0 + 0.1j, qspec)
    upper = oracle._tail_cutoff(0.1, qspec.abs_tol)
    assert panels == [math.ceil(upper / 0.25), math.ceil(upper / 0.0625)]


def test_row_evaluates_the_envelope_once_a_width(qspec, monkeypatch):
    # the x of an oracle_scan row accept r = 1/2, 1/4, 1/8 and 1/16, whose
    # levels 4r, r coincide at 1/2 and 1/4: one schedule over the row lays
    # six widths, in descending order, where one per width group lays eight
    panels = _record_envelope_panels(monkeypatch)
    oracle._quadrature_row(_log_nodes(0.01, 15.0, 32), 1e-4, qspec)
    upper = oracle._tail_cutoff(1e-4, qspec.abs_tol)
    assert panels == [math.ceil(upper / 2.0 ** -k) for k in range(-1, 5)]


def test_row_walks_the_union_of_its_nodes_levels(monkeypatch):
    # at abs_tol = 1e-15 some nodes miss at their r and go on to r/2, a
    # level of a narrower group, while the others stop at r; the row lays
    # each width of its nodes' levels once, and each node keeps its bits
    spec = QuadratureSpec(abs_tol=1e-15)
    xs = _log_nodes(0.01, 15.0, 32)
    panels = _record_envelope_panels(monkeypatch)
    alone, levels = [], []
    for x in xs:
        panels.clear()
        alone.append(w_quadrature(complex(x, 1e-4), spec))
        levels.append(list(panels))
    assert {len(own) for own in levels} == {2, 3}
    panels.clear()
    row = oracle._quadrature_row(xs, 1e-4, spec)
    assert panels == sorted(set().union(*levels))
    assert list(map(_bits, row)) == list(map(_bits, alone))


def test_truncation_point_is_irrelevant(qspec):
    # the integrand is below double precision long before tau = 50
    for z in (2.5 + 2.5j, 1 + 1j, 10 + 0.5j):
        a = w_quadrature(z, QuadratureSpec(tau_max=50.0))
        b = w_quadrature(z, QuadratureSpec(tau_max=60.0))
        scale = max(abs(a.real), abs(a.imag))
        assert abs(a.real - b.real) <= math.ulp(scale)
        assert abs(a.imag - b.imag) <= math.ulp(scale)


def test_self_consistency_under_tighter_tolerance():
    for i in range(5):
        for j in range(5):
            z = complex(0.5 + 3.5 * i, 0.1 + 3.5 * j)
            a = w_quadrature(z, QuadratureSpec(abs_tol=1e-14))
            b = w_quadrature(z, QuadratureSpec(abs_tol=5e-15))
            assert abs(a - b) < 1e-14


def test_subdivision_budget_enforced(coeffs, qspec):
    with pytest.raises(ConvergenceError):
        w_quadrature(15.0 + 0.5j, QuadratureSpec(max_subdivisions=4))
    # the widths are ~1e-308 there and upper / width is inf: both must end
    # in the budget's error
    for x in (4e307, 1e308, sys.float_info.max):
        with pytest.raises(ConvergenceError):
            w_quadrature(complex(x, 1.0), qspec)
        with pytest.raises(ConvergenceError):
            w_finite_quadrature(complex(x, 1.0), coeffs, qspec)


def _untruncated(z, spec):
    # w_quadrature without the tail cutoff: the same envelope and panel
    # width, integrated out to min(tau_max, _DECAY_CUTOFF)
    np = pytest.importorskip("numpy")
    x, y = z.real, z.imag

    def envelope(t):
        return np.exp(t * (-0.25 * t - y))

    upper = min(spec.tau_max, oracle._DECAY_CUTOFF)
    width = _accepted_width(x, y)
    return oracle._refine_panels(envelope, [x], upper, [width], spec)[0] / math.sqrt(math.pi)


def test_tail_cutoff_changes_no_bit(qspec):
    # the panels kept are the untruncated run's panels; the ones dropped
    # are ~1e-30 against results ~1e-2, below every last bit on the box
    # that perfbench's oracle_scan samples
    for x in _log_nodes(0.01, 15.0, 10):
        for y in _log_nodes(1e-4, 15.0, 10):
            z = complex(x, y)
            assert w_quadrature(z, qspec) == _untruncated(z, qspec), z


@pytest.mark.parametrize("abs_tol", [1e-14, 1e-6])
@pytest.mark.parametrize("y", [1e-4, 1.0, 15.0, 100.0])
def test_omitted_tail_is_below_tolerance(y, abs_tol):
    mpmath = pytest.importorskip("mpmath")
    cutoff = oracle._tail_cutoff(y, abs_tol)
    with mpmath.workdps(40):
        tail = mpmath.quad(lambda t: mpmath.exp(-t * t / 4 - y * t),
                           [cutoff, mpmath.inf]) / mpmath.sqrt(mpmath.pi)
    assert 0 < tail <= abs_tol * 2.0 ** -52


@pytest.mark.parametrize("z, abs_tol", [
    # the cutoff passes 52.9 here, so _DECAY_CUTOFF (and tau_max) stop it
    (2.5 + 2.5j, 5e-324),
    # L is clamped to 1 and the cutoff is about 0.83
    (1 + 1j, 1e300),
    (0.5 + 1e-300j, 1e-14),
    (3 + 1e6j, 1e-14),
    (1 + 1e200j, 1e-14),
])
def test_cutoff_edge_cases_return_finite_values(z, abs_tol):
    # 2 (sqrt(y^2 + L) - y) would cancel at y = 1e6 and overflow at 1e200.
    # Only finiteness is checked here; test_large_y_matches_wofz checks
    # the values at large y.
    cutoff = oracle._tail_cutoff(z.imag, abs_tol)
    assert math.isfinite(cutoff) and cutoff > 0.0
    assert math.isfinite(abs(w_quadrature(z, QuadratureSpec(abs_tol=abs_tol))))


@pytest.mark.parametrize("y", [2e4, 5e4, 1e5, 1e6, 1e100, 1e200,
                               9e307, 1e308, sys.float_info.max])
@pytest.mark.parametrize("x", [0.0, 3.0, 100.0])
def test_large_y_matches_wofz(x, y, qspec):
    # the first panel must shrink with y: at pi/4 wide every node sits where
    # e^{-y tau} < 1e-29 from y ~ 2e4 on, and two levels that both miss the
    # peak agree. From y ~ 9e307 hypot(y, sqrt(L)) + y overflows, and a
    # tail cutoff formed from it would lay no panel and return 0j.
    wofz = pytest.importorskip("scipy.special").wofz
    z = complex(x, y)
    assert rel_error(w_quadrature(z, qspec), complex(wofz(z))) <= 1e-13


def test_tiny_tolerance_stops_at_the_decay_cutoff():
    spec = QuadratureSpec(abs_tol=5e-324)
    assert oracle._tail_cutoff(1.0, spec.abs_tol) > oracle._DECAY_CUTOFF
    assert w_quadrature(1 + 1j, spec) == _untruncated(1 + 1j, spec)


def test_panel_budget_counts_panels_up_to_the_cutoff(qspec):
    # 800 panels to tau = 50 at the converged level, about a third of
    # that up to the cutoff near tau = 15.5
    z = 15.0 + 0.5j
    budget = QuadratureSpec(max_subdivisions=500)
    with pytest.raises(ConvergenceError):
        _untruncated(z, budget)
    assert w_quadrature(z, budget) == w_quadrature(z, qspec)


def test_finite_form_reproduces_refined_series(coeffs, qspec):
    # the refined series is the closed-form antiderivative of this
    # integral, so agreement validates the analytic integration step
    for z, tol in ((1 + 1j, 1e-11), (0.1 + 0.1j, 1e-10), (5 + 5j, 1e-11)):
        got = w_finite_quadrature(z, coeffs, qspec)
        assert rel_error(got, w_refined(z, coeffs)) <= tol, z


def test_finite_form_ignores_underflowed_terms(qspec):
    # a_n is 0.0 from n = 105 at tau_m = 12: the terms past it change no
    # bit and must not widen the kernel's cos matrix (~235 MB at N = 300)
    z = 1 + 1j
    live = w_finite_quadrature(z, build_coefficients(SeriesParams(n_terms=105)), qspec)
    assert w_finite_quadrature(z, build_coefficients(SeriesParams(n_terms=300)), qspec) == live


def test_finite_form_grid_agreement(coeffs, qspec):
    worst = 0.0
    for x in _log_nodes(0.01, 15.0, 7):
        for y in _log_nodes(0.01, 15.0, 7):
            z = complex(x, y)
            err = rel_error(w_finite_quadrature(z, coeffs, qspec), w_refined(z, coeffs))
            worst = max(worst, err)
    assert worst <= 1e-10


def test_defining_integral_grid_agreement(coeffs, qspec):
    worst = 0.0
    for x in _log_nodes(0.01, 15.0, 5):
        for y in _log_nodes(1e-4, 15.0, 5):
            z = complex(x, y)
            err = rel_error(w_refined(z, coeffs), w_quadrature(z, qspec))
            worst = max(worst, err)
    assert worst <= 1e-10


def test_gauss_legendre_rule_is_built_once(coeffs, qspec, monkeypatch):
    # a rule built per call would more than double the cost of each w_quadrature
    legendre = pytest.importorskip("numpy").polynomial.legendre
    builds = []
    real_leggauss = legendre.leggauss

    def counting_leggauss(deg):
        builds.append(deg)
        return real_leggauss(deg)

    monkeypatch.setattr(legendre, "leggauss", counting_leggauss)
    oracle._gauss_legendre.cache_clear()
    first = w_quadrature(1 + 1j, qspec)
    assert w_quadrature(1 + 1j, qspec) == first
    w_quadrature(0.5 + 2j, qspec)
    w_finite_quadrature(1 + 1j, coeffs, qspec)
    assert builds == [20]
