import math

import pytest

from cef import QuadratureSpec, SeriesParams, build_coefficients


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
