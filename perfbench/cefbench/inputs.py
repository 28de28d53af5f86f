"""Seeded inputs for the four workloads.

The generator belongs to the benchmark and never calls into ``cef``, so a
change to the library cannot change which points are evaluated. Every draw
comes from ``random.Random`` seeded with the string ``"<workload>/<seed>"``;
string seeds are hashed with SHA-512, so the same seed gives the same
inputs in every process and on every platform.

Draws that decide how accurate or how expensive a batch is (the y of a
profile, the y of a scan row, the magnitude of a full-plane probe point)
are stratified: one draw per equal-width stratum, in random order. That
keeps the worst case of each work set, and so ``accuracy_digits`` and
``ok_frac``, from swinging with the seed.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from typing import NamedTuple

BATCHES = 48
POINTS_PER_BATCH = 1024

VOIGT_X = tuple(-15.0 + 30.0 * i / (POINTS_PER_BATCH - 1) for i in range(POINTS_PER_BATCH))

# full_plane batch composition: the origin plus 50 more points exactly on
# the real axis (~5%), 102 probe points with log-uniform magnitude over
# [1e-20, 1e200] (~10%), the rest uniform in |x|, |y| <= 8.
AXIS_POINTS = 51
PROBE_POINTS = 102
PROBE_LOG10_RANGE = (-20.0, 200.0)
BOX_HALF_WIDTH = 8.0

SCAN_NX = 32
SCAN_X_RANGE = (0.01, 15.0)
SCAN_LOG10_Y_RANGE = (-4.0, math.log10(15.0))


class ScanRow(NamedTuple):
    """One y-row of a logarithmic scan grid."""

    y: float
    x_min: float = SCAN_X_RANGE[0]
    x_max: float = SCAN_X_RANGE[1]
    nx: int = SCAN_NX

    def x_nodes(self) -> list[float]:
        """The nodes the scan must visit, computed here independently."""
        lo, hi = math.log10(self.x_min), math.log10(self.x_max)
        return [10.0 ** (lo + (hi - lo) * i / (self.nx - 1)) for i in range(self.nx)]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi), one per equal-width stratum, in random order."""
    width = (hi - lo) / n
    values = [lo + width * (k + rng.random()) for k in range(n)]
    rng.shuffle(values)
    return values


def voigt_profiles(seed: int) -> list[float]:
    """One y per profile, log-uniform over [1e-4, 1)."""
    return [10.0 ** u for u in _stratified(_rng("voigt_profiles", seed), BATCHES, -4.0, 0.0)]


def high_y(seed: int) -> list[list[complex]]:
    """Scattered points with x in [0, 15), y in [1, 15)."""
    rng = _rng("high_y", seed)
    return [[complex(15.0 * rng.random(), 1.0 + 14.0 * rng.random())
             for _ in range(POINTS_PER_BATCH)] for _ in range(BATCHES)]


def _probe_point(rng: random.Random, log10_magnitude: float) -> complex:
    r = 10.0 ** log10_magnitude
    angle = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(angle), r * math.sin(angle))


def full_plane(seed: int) -> list[list[complex]]:
    """All four quadrants, the real axis and extreme magnitudes."""
    rng = _rng("full_plane", seed)
    n_box = POINTS_PER_BATCH - AXIS_POINTS - PROBE_POINTS
    batches = []
    for _ in range(BATCHES):
        points = [0j]
        points += [complex(rng.uniform(-BOX_HALF_WIDTH, BOX_HALF_WIDTH), 0.0)
                   for _ in range(AXIS_POINTS - 1)]
        points += [_probe_point(rng, m)
                   for m in _stratified(rng, PROBE_POINTS, *PROBE_LOG10_RANGE)]
        points += [complex(rng.uniform(-BOX_HALF_WIDTH, BOX_HALF_WIDTH),
                           rng.uniform(-BOX_HALF_WIDTH, BOX_HALF_WIDTH))
                   for _ in range(n_box)]
        rng.shuffle(points)
        batches.append(points)
    return batches


def oracle_scan(seed: int) -> list[ScanRow]:
    """Scan rows with y log-uniform over [1e-4, 15], plus the row y = 1.

    y = 1 is the default y_switch, where the adaptive route's error peaks
    (the documented trade of the common-only route); a fixed row there keeps
    the scan's worst case, and so ``accuracy_digits``, from depending on
    whether a random row lands just above the switch.
    """
    rng = _rng("oracle_scan", seed)
    rows = [ScanRow(10.0 ** u) for u in _stratified(rng, BATCHES - 1, *SCAN_LOG10_Y_RANGE)]
    rows.insert(rng.randrange(BATCHES), ScanRow(1.0))
    return rows


GENERATORS = {
    "voigt_profiles": voigt_profiles,
    "high_y": high_y,
    "full_plane": full_plane,
    "oracle_scan": oracle_scan,
}


def points_of(workload: str, batch) -> list[complex]:
    """The arguments z = x + iy a batch evaluates, in output order."""
    if workload == "voigt_profiles":
        return [complex(x, batch) for x in VOIGT_X]
    if workload == "oracle_scan":
        return [complex(x, batch.y) for x in batch.x_nodes()]
    return batch


def checksum(workload: str, batches: list) -> str:
    """SHA-256 over the IEEE-754 bytes of every evaluated argument."""
    digest = hashlib.sha256(workload.encode())
    for batch in batches:
        for z in points_of(workload, batch):
            digest.update(struct.pack("<dd", z.real, z.imag))
    return digest.hexdigest()
