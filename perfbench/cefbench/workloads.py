"""Batch runners and the per-point correctness check.

A runner is one unit of user work: it takes one generated batch, calls the
library and returns one output per point. An exception is caught per point
and returned as its class name, so that a raising point is counted rather
than ending the run. Runners look library functions up on the ``cef``
package at call time, which is where the traced run installs its wrappers.

The check compares every output with ``scipy.special.wofz`` and falls back
to ``mpmath`` only where ``wofz`` is not finite. A point fails when it
raises an unexpected exception, returns a non-finite value, is further than
the workload's bound from the reference, or does not raise OverflowError
where y < 0 and y^2 - x^2 > 700 (raising it there is correct).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import wofz

from . import inputs

# largest relative error a point may have before it counts as failed
BOUNDS = {
    "voigt_profiles": 1e-8,
    "high_y": 1e-8,
    "full_plane": 1e-8,
    "oracle_scan": 1e-8,
}
# largest gap between the scan's own error and the same error against wofz
ORACLE_AGREEMENT = 1e-11
# where w_full_plane must raise OverflowError (2 exp(-z^2) leaves the doubles)
OVERFLOW_LIMIT = 700.0
# the regions ROADMAP direction 4 lists as returning wrong answers silently
# (cancellation near the origin; overflow of (tau_m z)^2 and of the lower
# half-plane reflection at large |z|). Failures there are counted in
# ``failed`` and ``ok_frac`` but do not make a run incorrect.
KNOWN_DEFECT_BELOW = 1e-6
KNOWN_DEFECT_ABOVE = 1e3
ACCURACY_FLOOR = 1e-17


def run_voigt_profiles(cef, table, y):
    voigt_k = cef.voigt_k
    out = []
    for x in inputs.VOIGT_X:
        try:
            out.append(voigt_k(x, y, table))
        except Exception as exc:  # counted as a failed point by the check
            out.append(type(exc).__name__)
    return out


def run_high_y(cef, table, points):
    w_adaptive = cef.w_adaptive
    out = []
    for z in points:
        try:
            out.append(w_adaptive(z, table).value)
        except Exception as exc:  # counted as a failed point by the check
            out.append(type(exc).__name__)
    return out


def run_full_plane(cef, table, points):
    w_full_plane = cef.w_full_plane
    out = []
    for z in points:
        try:
            out.append(w_full_plane(z, table).value)
        except Exception as exc:  # counted as a failed point by the check
            out.append(type(exc).__name__)
    return out


def run_oracle_scan(cef, table, row):
    grid = cef.GridSpec(x_min=row.x_min, x_max=row.x_max, y_min=row.y, y_max=row.y,
                        nx=row.nx, ny=1, spacing="logarithmic")
    try:
        report = cef.error_scan(grid, "adaptive", "oracle", table)
    except Exception as exc:  # the whole row fails
        return [type(exc).__name__] * row.nx
    return list(report.per_point)


RUNNERS = {
    "voigt_profiles": run_voigt_profiles,
    "high_y": run_high_y,
    "full_plane": run_full_plane,
    "oracle_scan": run_oracle_scan,
}
# the host-speed kernel doing the same kind of work (see hostspeed.py)
HOST_KERNEL = {
    "voigt_profiles": "scalar",
    "high_y": "scalar",
    "full_plane": "scalar",
    "oracle_scan": "array",
}


class Verdict(NamedTuple):
    """Outcome of checking one work set."""

    attempted: int
    failed: int
    unexpected_failures: list[str]   # failures outside the known-defect regions
    max_error: float                 # over the points that passed

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    @property
    def accuracy_digits(self) -> float:
        return -math.log10(max(self.max_error, ACCURACY_FLOOR))


def _mpmath_w(z: complex) -> complex:
    import mpmath
    with mpmath.workdps(40):
        zz = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(-zz * zz) * mpmath.erfc(-1j * zz))


def reference_values(points: list[complex]) -> list[complex]:
    """w(z) from wofz, with mpmath as the arbiter where wofz is not finite."""
    ref = wofz(np.array(points, dtype=complex))
    out = ref.tolist()
    for i in np.flatnonzero(~np.isfinite(ref)):
        z = points[i]
        if not must_overflow(z):
            out[i] = _mpmath_w(z)
    return out


def must_overflow(z: complex) -> bool:
    """y < 0 and y^2 - x^2 > 700, factored so that it cannot overflow."""
    x, y = abs(z.real), abs(z.imag)
    return z.imag < 0.0 and (y - x) * (y + x) > OVERFLOW_LIMIT


def rel_error(got: complex, want: complex) -> float:
    """|got - want| / |want| without overflow; inf if got is not finite."""
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return math.inf
    scale = max(abs(want.real), abs(want.imag))
    if scale == 0.0 or not math.isfinite(scale):
        return 0.0 if got == want else math.inf
    return (math.hypot((got.real - want.real) / scale, (got.imag - want.imag) / scale)
            / math.hypot(want.real / scale, want.imag / scale))


def in_known_defect_region(z: complex) -> bool:
    magnitude = math.hypot(z.real, z.imag)
    return z != 0 and (magnitude < KNOWN_DEFECT_BELOW or magnitude > KNOWN_DEFECT_ABOVE)


def _point_error(workload: str, z: complex, got, want: complex) -> float:
    """Relative error of one output, inf for a failure of any kind."""
    if isinstance(got, str):
        return 0.0 if got == "OverflowError" and must_overflow(z) else math.inf
    if must_overflow(z):
        return math.inf
    if workload == "voigt_profiles":
        if not math.isfinite(got):
            return math.inf
        return abs(got - want.real) / abs(want.real)
    return rel_error(complex(got), want)


def _scan_point_error(cef, table, row, z: complex, got) -> float:
    """Error of one scan node: the scan's error must be finite, within the
    bound, and agree with the same error measured against wofz."""
    if isinstance(got, str):
        return math.inf
    x, y, err = got
    if (abs(x - z.real) > 1e-14 * z.real or abs(y - z.imag) > 1e-14 * z.imag
            or not math.isfinite(err)):
        return math.inf
    want = reference_values([complex(x, y)])[0]
    against_wofz = rel_error(cef.w_adaptive(complex(x, y), table).value, want)
    if abs(err - against_wofz) > ORACLE_AGREEMENT:
        return math.inf
    return err


def check(workload: str, cef, table, batches: list, outputs: list) -> Verdict:
    """Check every output of one pass over the work set."""
    bound = BOUNDS[workload]
    attempted = failed = 0
    unexpected = []
    max_error = 0.0
    for batch, out in zip(batches, outputs):
        points = inputs.points_of(workload, batch)
        if len(out) != len(points):
            raise RuntimeError(f"{workload}: batch returned {len(out)} outputs "
                               f"for {len(points)} points")
        if workload == "oracle_scan":
            errors = [_scan_point_error(cef, table, batch, z, got)
                      for z, got in zip(points, out)]
        else:
            refs = reference_values(points)
            errors = [_point_error(workload, z, got, want)
                      for z, got, want in zip(points, out, refs)]
        for z, got, err in zip(points, out, errors):
            attempted += 1
            if err <= bound:
                max_error = max(max_error, err)
                continue
            failed += 1
            if not in_known_defect_region(z):
                unexpected.append(f"{workload}: z={z!r} returned {got!r} (error {err:.3g})")
    return Verdict(attempted, failed, unexpected, max_error)
