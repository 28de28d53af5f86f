"""Correct batch times for the drifting speed of a shared host.

On a shared machine the speed of one core drifts by up to 2x, in states
that last from seconds to minutes, as other tenants load the host. Every
estimator of raw batch time (mean, median, any percentile) then moves by
5-25% from one run to the next, more than the regressions the benchmark is
meant to catch.

So after every timed batch the benchmark runs a fixed kernel that shares
no code with ``cef``. Each batch time is scaled by ``REFERENCE_NS`` over
the median kernel time of the batches around it. The result reads as the
batch time on a host running at reference speed: drift slows the kernel
and the batch alike and cancels, while a change to the library moves only
the batch. Raw wall times are reported next to the corrected ones.

Drift does not slow all work alike, so each workload is corrected by a
kernel that does its kind of work (``workloads.HOST_KERNEL``). The
``scalar`` kernel is a frozen copy of the shape of the series kernels: a
23-term pole sum of complex divisions and one ``cmath.exp`` per point. The
``array`` kernel is a frozen copy of the shape of the quadrature oracle:
composite Gauss-Legendre panels of numpy ufuncs and a matrix-vector
product, refined three times. Both live here and never change with the
library, so a change to ``cef`` cannot move them.
"""

from __future__ import annotations

import cmath
import math
import statistics

import numpy as np

# batches on each side whose kernel times give the local host speed
WINDOW = 4

_POLE_TERMS = tuple(((n * n) * math.pi * math.pi, math.exp(-(n * n) * math.pi * math.pi / 144.0))
                    for n in range(1, 24))
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)


def _pole_sum(z: complex) -> complex:
    tz = 12.0 * z
    tz2 = tz * tz
    acc = 0j
    for n2pi2, c_n in _POLE_TERMS:
        acc += c_n / (n2pi2 - tz2)
    return 1j / tz - 2j * tz * acc


def scalar_kernel() -> complex:
    """Fixed scalar work, independent of the library under test."""
    acc = 0j
    for k in range(64):
        z = complex(0.2 * k, 0.5)
        acc += _pole_sum(z) + cmath.exp(12j * z) * _pole_sum(z)
    return acc


def _panels(x: float, y: float, width: float, upper: float = 16.0) -> complex:
    n_panels = math.ceil(upper / width)
    half = 0.5 * width
    mids = width * np.arange(n_panels) + half
    t = (mids[:, None] + half * _NODES[None, :]).ravel()
    vals = np.exp(-0.25 * t * t - y * t) * (np.cos(x * t) + 1j * np.sin(x * t))
    return half * complex((vals.reshape(n_panels, _NODES.size) @ _WEIGHTS).sum())


def array_kernel() -> complex:
    """Fixed small-array numpy work, independent of the library under test."""
    acc = 0j
    for x in (0.05, 0.5, 2.0, 6.0):
        width = min(1.0, math.pi / (4.0 * max(1.0, x)))
        for level in range(3):
            acc += _panels(x, 0.5, width / 2 ** level)
    return acc


KERNELS = {"scalar": scalar_kernel, "array": array_kernel}
# median kernel times on the host where the bounds were fixed (2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4); they only set the scale
REFERENCE_NS = {"scalar": 700_000, "array": 1_800_000}


def corrected(batch_ns: list[int], kernel_ns: list[int], kind: str) -> list[float]:
    """Each batch time at reference host speed."""
    reference = REFERENCE_NS[kind]
    return [t * reference / statistics.median(kernel_ns[max(0, i - WINDOW): i + WINDOW + 1])
            for i, t in enumerate(batch_ns)]
