"""Measurement helpers of the benchmark: percentiles, CPU speed, spans and
self time.

Everything here is stdlib-only and independent of the ``repro`` package,
so the helpers can be unit-tested without building a SOC.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import threading
import time
from dataclasses import dataclass
from statistics import mean
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, one outlier would move it.
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``quantile`` of all samples at or below it."""
    if not samples:
        raise ValueError("nearest_rank needs at least one sample")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, quantile: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``quantile`` percentile."""
    return count - max(1, math.ceil(quantile * count))


def tail_percentile(samples: Sequence[float], quantile: float) -> Tuple[float, bool]:
    """The ``quantile`` percentile and whether the sample supports it.

    When fewer than :data:`MIN_BEYOND` samples lie beyond the percentile
    the largest sample is returned instead, flagged ``False``: with so few
    samples the maximum is the only honest tail figure.
    """
    if samples_beyond(len(samples), quantile) >= MIN_BEYOND:
        return nearest_rank(samples, quantile), True
    return max(samples), False


def covered_length(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals are clipped to the window first, so overlapping children and
    children that spill past their parent are each counted once.
    """
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    covered = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = b
    return covered


# ----------------------------------------------------------------------
# CPU speed
# ----------------------------------------------------------------------
def reference_work() -> int:
    """A fixed pure-Python task of about half a millisecond, independent of
    the program: seeded integers into a dict, a sort and a bounded heap of
    tuples, the kinds of work the wrapper kernel and the scheduler do.

    The garbage collector is off while it runs, so a collection's cost,
    which grows with the caller's heap, never lands in its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(2002)
        table: Dict[int, Tuple[int, int]] = {}
        for index in range(300):
            key = rng.randrange(1 << 40)
            table[key] = (index, key % 97)
        events: List[Tuple[int, int]] = []
        total = 0
        for key in sorted(table):
            index, residue = table[key]
            heapq.heappush(events, (residue, index))
            if len(events) > 64:
                total += heapq.heappop(events)[1]
        return total
    finally:
        if enabled:
            gc.enable()


#: :func:`reference_work`'s time on a CPU of the 2-CPU machine the benchmark
#: was written on, in its fast state (Python 3.11.7).
REFERENCE_WORK_S = 0.00042


def host_scale(
    samples: Iterable[Tuple[float, float]], windows: Sequence[Tuple[float, float]]
) -> float:
    """How much slower than :data:`REFERENCE_WORK_S` the sampled CPUs ran
    during ``windows``: the mean time of the ``(end, seconds)`` samples that
    ended inside any window, over the reference time."""
    inside = [
        seconds for end, seconds in samples if any(a <= end <= b for a, b in windows)
    ]
    if not inside:
        raise ValueError("no speed sample fell inside the measured windows")
    return mean(inside) / REFERENCE_WORK_S


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    request: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.span_id]
    return totals


class Tracer:
    """In-memory span recorder that wraps public functions from outside.

    Spans nest per thread; a span opened while another is open on the same
    thread becomes its child.  :meth:`patch` replaces a function or method
    with a span-recording wrapper everywhere it is bound -- on its owner
    and in every loaded module that imported it by name -- and
    :meth:`restore` undoes every patch.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self.counts: Dict[str, int] = {}

    def add(self, counter: str, amount: int = 1) -> None:
        """Bump a named counter recorded beside the spans."""
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- request identity ------------------------------------------------
    def set_request(self, request: str) -> None:
        """Tag spans opened on this thread from now on with ``request``."""
        self._local.request = request

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------
    def call(self, name: str, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            span = Span(
                span_id, name, layer, start, end, parent,
                getattr(self._local, "request", ""),
            )
            with self._lock:
                self.spans.append(span)

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        layer: str,
        modules: Iterable[Any] = (),
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Wrap ``owner.attribute`` (and same-object aliases in ``modules``).

        ``before`` sees the call's arguments and ``after`` its return
        value; probes use them to set the request id or to count work.
        """
        original = getattr(owner, attribute)
        tracer = self

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            value = tracer.call(name, layer, original, *args, **kwargs)
            if after is not None:
                after(value)
            return value

        targets = [owner] + [
            module for module in modules
            if module is not owner and getattr(module, attribute, None) is original
        ]
        for target in targets:
            # The raw attribute, so a staticmethod or classmethod comes back
            # as itself on restore.
            self._patches.append((target, attribute, vars(target).get(attribute, original)))
            setattr(target, attribute, wrapped)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            target, attribute, original = self._patches.pop()
            setattr(target, attribute, original)

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]
