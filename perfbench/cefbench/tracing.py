"""Spans around the public functions of each ``cef`` layer, from outside.

``Tracer.installed`` replaces each traced function at the place where
callers look it up (the ``cef`` package for calls the benchmark makes, and
the module globals the library's own calls go through, such as
``cef.series.w_cr`` as called by ``w_adaptive``) and restores the originals
on exit. Each call records a span: name, start, end and parent. Spans stay
in compact arrays in memory and are written out once, at the end.

Routes are counted from the ``Path`` of the outermost call that returns an
``EvaluationOutcome`` for a point, so a full-plane point folded through
several recursive calls counts once, with the route the caller sees.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from array import array
from collections import Counter

import numpy as np

# (module under cef, attribute, span name, returns an EvaluationOutcome)
SITES = (
    ("", "voigt_k", "functions.voigt_k", False),
    ("", "w_adaptive", "series.w_adaptive", True),
    ("functions", "w_adaptive", "series.w_adaptive", True),
    ("plane", "w_adaptive", "series.w_adaptive", True),
    ("analysis", "w_adaptive", "series.w_adaptive", True),
    ("series", "w_cr", "series.w_cr", False),
    ("series", "refining_part", "series.refining_part", False),
    ("", "w_full_plane", "plane.w_full_plane", True),
    ("plane", "w_full_plane", "plane.w_full_plane", True),
    ("", "error_scan", "analysis.error_scan", False),
    ("analysis", "w_quadrature", "oracle.w_quadrature", False),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SITES))
ROUTES = ("common_only", "full_decomposition", "symmetry_extended", "refined",
          "exact_special_case")
_FOLDING = SPAN_NAMES.index("plane.w_full_plane")


class Tracer:
    """Records the spans of one traced block; each ``installed`` block
    starts from empty."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.name = array("b")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.routes: Counter[str] = Counter()
        self.overflow_raised = 0

    def _wrap(self, fn, span_name: str, returns_outcome: bool):
        name_id = SPAN_NAMES.index(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            parent = stack[-1]
            counts_route = returns_outcome and (parent < 0 or names[parent] != _FOLDING)
            names.append(name_id)
            parents.append(parent)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except OverflowError:
                if counts_route:
                    self.overflow_raised += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if counts_route:
                self.routes[result.path.value] += 1
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, cef):
        """Wrap every site in SITES for the duration of the block."""
        self.reset()
        saved = []
        try:
            for module_name, attr, span_name, returns_outcome in SITES:
                module = getattr(cef, module_name) if module_name else cef
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name, returns_outcome))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """span name -> (calls, self time in ns). Self time is a span's
        duration minus the time its child spans cover."""
        if not self.start:
            return {name: (0, 0) for name in SPAN_NAMES}
        name = np.frombuffer(self.name, dtype=np.int8)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64))
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=duration.size)
        self_time = duration - child_time
        calls = np.bincount(name, minlength=len(SPAN_NAMES))
        self_sum = np.bincount(name, weights=self_time, minlength=len(SPAN_NAMES))
        return {n: (int(calls[i]), int(self_sum[i])) for i, n in enumerate(SPAN_NAMES)}

    def write(self, path) -> None:
        """Write the spans of the last pass as gzipped JSON columns."""
        payload = {"names": SPAN_NAMES, "name": self.name.tolist(),
                   "parent": self.parent.tolist(), "start_ns": self.start.tolist(),
                   "end_ns": self.end.tolist()}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
