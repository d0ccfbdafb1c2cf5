"""Outside-in span recording for the traced benchmark run.

The benchmark never edits the program: a traced run replaces the calls at
each layer boundary (class methods and module-level names) with wrappers
for the duration of one simulation, then puts the originals back.  A
wrapper records one span — layer, start, end, parent — into flat arrays
kept in memory; nothing is written until the run is over.

A layer's self time is its spans' time minus the time of the spans they
caused.  The root span (one per simulated instance, opened by the
benchmark around the public entry point) has no layer: its self time is
the explicit ``unattributed`` remainder, so the layer self times plus
``unattributed`` add back up to the traced wall time exactly.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Span layers, in report order.  Index 0 is the root span.
ROOT = "unattributed"
LAYERS = (
    ROOT,
    "workloads",
    "sim",
    "schedsim",
    "schedsim.build",
    "scheduling",
    "metrics",
    "cloud.simulator",
    "cloud.provider",
    "cloud.autoscaler",
    "faults",
)
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}


class SpanRecorder:
    """Flat in-memory span store: ``layer``, ``start``, ``end``, ``parent``."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack: List[int] = [-1]
        #: Counts taken at the same boundaries (decisions, engine events).
        self.counts: Dict[str, float] = {}

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, layer: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as one ``layer`` span per call.

        ``observe(args, result)`` runs after the span has closed, so the
        bookkeeping it does is not charged to ``layer``.
        """
        layer_id = _LAYER_ID[layer]
        layers, starts, ends, parents = (
            self.layer, self.start, self.end, self.parent)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(layers)
            layers.append(layer_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def root(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a root span (the instance boundary)."""
        return self.wrap(ROOT, fn)(*args, **kwargs)

    # ------------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """Per-layer self seconds, per-layer call counts, and root wall."""
        n = len(self.layer)
        child_ns = [0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        self_ns = [0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        wall_ns = 0
        for i, layer_id in enumerate(self.layer):
            duration = ends[i] - starts[i]
            self_ns[layer_id] += duration - child_ns[i]
            calls[layer_id] += 1
            if parents[i] < 0:
                wall_ns += duration
        return (
            {name: self_ns[i] / 1e9 for i, name in enumerate(LAYERS)},
            {name: calls[i] for i, name in enumerate(LAYERS)},
            wall_ns / 1e9,
        )

    def durations_ns(self, layer: str) -> List[int]:
        """Inclusive span durations of one layer."""
        layer_id = _LAYER_ID[layer]
        starts, ends = self.start, self.end
        return [ends[i] - starts[i]
                for i, lid in enumerate(self.layer) if lid == layer_id]

    def write(self, path: str) -> None:
        """Dump every span as CSV: ``id,layer,start_ns,end_ns,parent``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,layer,start_ns,end_ns,parent\n")
            for i, layer_id in enumerate(self.layer):
                out.write(f"{i},{LAYERS[layer_id]},{self.start[i]},"
                          f"{self.end[i]},{self.parent[i]}\n")


class TracedIterator:
    """An iterator whose every ``next()`` is one ``workloads`` span.

    Deliberately not a ``Sequence``: the simulator then consumes it
    lazily, one arrival at a time, exactly as it does the bare generator.
    """

    def __init__(self, recorder: SpanRecorder, iterable) -> None:
        self._next = recorder.wrap("workloads", iter(iterable).__next__)

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self):
        return self._next()


@contextmanager
def patched(targets: Sequence[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(original)`` for each target,
    restoring every original on exit."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
