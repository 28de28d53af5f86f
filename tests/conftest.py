import math

import pytest

from cef import QuadratureSpec, SeriesParams, build_coefficients, measure_throughput


@pytest.fixture(scope="session")
def coeffs():
    return build_coefficients(SeriesParams())


@pytest.fixture(scope="session")
def qspec():
    return QuadratureSpec()


def rel_error(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


def component_rel_errors(got: complex, want: complex) -> tuple[float, float]:
    return (abs(got.real - want.real) / abs(want.real),
            abs(got.imag - want.imag) / abs(want.imag))


def interleaved_throughputs(method_a, method_b, coeffs, total=1_000_000, batches=4):
    """Points/s of two bench methods over ``total`` points each, timed in
    alternating batches so that CPU frequency drift over the run hits both
    measurements evenly."""
    per_batch = total // batches
    wall = {method_a: 0.0, method_b: 0.0}
    for batch in range(batches):
        for method in (method_a, method_b):
            report = measure_throughput(method, per_batch, 42 + batch, coeffs)
            wall[method] += report.wall_time
    return total / wall[method_a], total / wall[method_b]


def loop_terms(params):
    """(n^2 pi^2, c_n) for n = 1..N, built as the loop kernels built them."""
    tau_sq = params.tau_m * params.tau_m
    return [((n * n) * (math.pi * math.pi),
             math.exp(-(n * n) * (math.pi * math.pi) / tau_sq))
            for n in range(1, params.n_terms + 1)]


def loop_parity_sums(u, terms, skip=0):
    """The odd-n and even-n partial sums of c_n / (n^2 pi^2 - u) without the
    term n = skip (skip = 0 drops none), each in descending n from 0j; the
    underflowed terms come first and leave 0j as it is."""
    sums = [0j, 0j]   # even n, odd n
    for n, (n2pi2, c_n) in reversed(list(enumerate(terms, start=1))):
        if n != skip:
            sums[n % 2] += c_n / (n2pi2 - u)
    return sums[1], sums[0]


def ulp_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def mp_w(z: complex, dps: int = 40) -> complex:
    """w(z) from mpmath at ``dps`` digits, for the large-|z| tests.

    For |z| < 25 it is e^{-z^2} erfc(-iz). Further out mpmath's erfc stops
    working (it overflows at 1e300j, and near the real axis it cancels), so
    it is the asymptotic series (i / (sqrt(pi) z)) sum_k (2k-1)!! / (2z^2)^k
    for Im z >= 0, summed until a term drops below 10^-dps; what that
    leaves out is below e^{-600} of |w| there. For Im z < 0 it is
    2 e^{-z^2} - w(-z). The two forms agree to the last bit of a double
    at |z| = 25..1000 in every direction of the closed upper half-plane.
    """
    import mpmath
    with mpmath.workdps(dps):
        return complex(_mp_w(mpmath, mpmath.mpc(z.real, z.imag), dps))


def _mp_w(mpmath, z, dps: int):
    if abs(z) < 25:
        return mpmath.exp(-z * z) * mpmath.erfc(-1j * z)
    if z.imag < 0:
        return 2 * mpmath.exp(-z * z) - _mp_w(mpmath, -z, dps)
    total = term = mpmath.mpf(1)
    k = 0
    while abs(term) >= mpmath.mpf(10) ** -dps:
        k += 1
        term *= (2 * k - 1) / (2 * z * z)
        total += term
    return 1j / (mpmath.sqrt(mpmath.pi) * z) * total
