"""Reference-free invariants of w(z) over the whole double range.

Properties that hold for every finite z need no reference, so they are
checked on a seeded log-uniform sweep: |x| and |y| in [1e-300, 1e300] in
all four quadrants, plus a tenth of the points on y = 0, real-axis
points at 7 <= |x| < 26, where only the continued fraction's e^{-x^2}
makes Re w positive, and imaginary-axis points at |y| < 30, with both
signs of zero. Re w > 0 is checked wherever a lower bound puts it above
1e-300, erfc(conj z) = conj erfc(z) bit for bit for both erfc functions
on the axes and a tenth of the other points, L = Im w odd in x bit for
bit, and K non-increasing in |x| on seeded pairs. A known defect is an
excluded box tagged ``defect`` with its documented figure; the change
that mends it deletes the exclusion.
"""

import cmath
import math
import random

from cef import DomainError, erfc_complex, erfc_cr_series, imag_l, voigt_k, w_full_plane
from cef.plane import _REFLECTION_OVERFLOW_LIMIT, _UNDERFLOW_LIMIT

POINTS = 100_000
REAL_AXIS_POINTS = 1000
IMAG_AXIS_POINTS = 1000
PAIRS = 20_000


def _defect_negative_re(x: float, y: float) -> bool:
    """defect (ROADMAP direction 6): at 3 <= |x| < 7 and 0 < y < 1e-8 the
    refined series resolves Re w only to ~eps |w|, and Re w can come out
    negative: 6.2801 + 3.3e-51j gives Re -7.6e-19. The sweep takes that
    point first; of its 1e5 drawn points at seed 11, 7 fall in the box and
    none of them comes out negative. Of the sweep's 28 724 points where the
    lower bound puts Re w above 1e-300, only that first point fails."""
    return 3.0 <= abs(x) < 7.0 and 0.0 < y < 1e-8


def _re_lower_bound(x: float, y: float) -> float:
    """A lower bound on Re w for y >= 0: e^{-x^2} on y = 0, else the part of
    K = (y/pi) int e^{-t^2} / ((x - t)^2 + y^2) dt over |t| <= 1, where
    int_{-1}^{1} e^{-t^2} dt = 1.4936... and (x - t)^2 <= (|x| + 1)^2."""
    if y == 0.0:
        return math.exp(-x * x)
    ax = abs(x) + 1.0
    return y / math.pi * 1.4936 / (ax * ax + y * y)


def _overflow_expected(z: complex) -> bool:
    """Where w_full_plane raises OverflowError: y < 0 and y^2 - x^2 > 700,
    or the diagonal phase rule, z^2 not a double where e^{-z^2} does not
    underflow (y = +-x past ~9.5e153)."""
    if z.imag >= 0.0:
        return False
    x, y = abs(z.real), abs(z.imag)
    excess = (y - x) * (y + x)
    return excess > _REFLECTION_OVERFLOW_LIMIT or (
        not excess < _UNDERFLOW_LIMIT and not cmath.isfinite(z * z))


def _w(z: complex, coeffs):
    try:
        return w_full_plane(z, coeffs).value
    except OverflowError:
        return None


def _bits(call):
    """The bits of call()'s parts, or the type of the error it raises."""
    try:
        value = call()
    except (DomainError, OverflowError) as error:
        return type(error)
    return value.real.hex(), value.imag.hex()


def _sweep(seed: int):
    yield complex(6.2801, 3.3e-51)
    rng = random.Random(seed)
    for _ in range(POINTS):
        x = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
        y = 0.0 if rng.random() < 0.1 else (
            rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300.0, 300.0))
        yield complex(x, y)
    for _ in range(REAL_AXIS_POINTS):
        yield complex(rng.choice((1.0, -1.0)) * rng.uniform(7.0, 26.0), 0.0)
    for _ in range(IMAG_AXIS_POINTS):
        yield complex(rng.choice((0.0, -0.0)), rng.uniform(-30.0, 30.0))


def test_invariants_over_the_double_range(coeffs):
    failures = []
    for i, z in enumerate(_sweep(11)):
        x, y = z.real, z.imag
        erfcs = (erfc_complex, erfc_cr_series) if x == 0.0 or y == 0.0 or i % 10 == 0 else ()
        for erfc in erfcs:
            if (_bits(lambda: erfc(z.conjugate(), coeffs))
                    != _bits(lambda: erfc(z, coeffs).conjugate())):
                failures.append((f"{erfc.__name__}(conj z) = conj of its value at z", z, None))
        w = _w(z, coeffs)
        if (w is None) != _overflow_expected(z):
            failures.append(("raises where expected, finite elsewhere", z, w))
            continue
        mirrored = _w(complex(-x, y), coeffs)
        if (w is None) != (mirrored is None) or (
                w is not None and (mirrored.real.hex(), mirrored.imag.hex())
                != (w.real.hex(), (-w.imag).hex())):
            failures.append(("w(-conj z) = conj w(z) bit for bit", z, w))
        if w is None:
            continue
        if not cmath.isfinite(w):
            failures.append(("finite", z, w))
        if y >= 0.0:
            if abs(w) > 1.0:
                failures.append(("|w| <= 1", z, w))
            positive = _re_lower_bound(x, y) > 1e-300
            if (w.real <= 0.0 if positive else w.real < 0.0) and not _defect_negative_re(x, y):
                failures.append(("Re w > 0 above its lower bound, >= 0 elsewhere", z, w))
        if y > 0.0:
            if x != 0.0 and w.imag != 0.0 and math.copysign(1.0, w.imag) != math.copysign(1.0, x):
                failures.append(("Im w has the sign of x", z, w))
            k = voigt_k(x, y, coeffs)
            if k.hex() != w.real.hex():
                failures.append(("voigt_k = Re w bit for bit", z, k))
            l = imag_l(x, y, coeffs)
            if imag_l(-x, y, coeffs).hex() != (-l).hex():
                failures.append(("imag_l(-x, y) = -imag_l(x, y) bit for bit", z, l))
    assert not failures, (len(failures), failures[:10])


def test_voigt_k_does_not_increase_with_abs_x(coeffs):
    # the Voigt profile is unimodal: K(x2, y) <= K(x1, y) for |x2| > |x1|,
    # checked where the two |x| differ by at least 1e-3 relative, with a
    # relative margin of 1e-12 for rounding
    rng = random.Random(11)
    failures = []
    for _ in range(PAIRS):
        y = 10.0 ** rng.uniform(-12.0, 2.0)
        near, far = sorted(10.0 ** rng.uniform(-3.0, math.log10(30.0)) for _ in range(2))
        if far < near * (1.0 + 1e-3):
            continue
        k_near = voigt_k(rng.choice((1.0, -1.0)) * near, y, coeffs)
        k_far = voigt_k(rng.choice((1.0, -1.0)) * far, y, coeffs)
        if k_far > k_near * (1.0 + 1e-12):
            failures.append((near, far, y, k_near, k_far))
    assert not failures, (len(failures), failures[:10])
