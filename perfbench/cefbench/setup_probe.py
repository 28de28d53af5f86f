"""Measure what every ``cef`` user pays before the first evaluation.

Run in a fresh interpreter as ``python setup_probe.py <src directory>``. It
times ``import cef`` and ``build_coefficients(SeriesParams())``, reads the
process's peak resident set size, then times the scalar host-speed kernel
(see hostspeed.py) so that the caller can correct for host drift. It prints
one JSON object with all of these.
"""

import json
import resource
import sys
import time


def main(src: str) -> None:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import cef
    t1 = time.perf_counter()
    cef.build_coefficients(cef.SeriesParams())
    t2 = time.perf_counter()
    peak_rss_mb = peak_rss_kib() / 1024.0
    import hostspeed
    kernel_ns = []
    for _ in range(3):
        t3 = time.perf_counter_ns()
        hostspeed.scalar_kernel()
        kernel_ns.append(time.perf_counter_ns() - t3)
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "peak_rss_mb": peak_rss_mb,
                      "kernel_ns": sorted(kernel_ns)[1], "cef_file": cef.__file__}))


def peak_rss_kib() -> int:
    """This process's peak resident set size. VmHWM starts afresh at exec;
    ru_maxrss can carry the parent's peak over, so it is only the fallback."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    main(sys.argv[1])
