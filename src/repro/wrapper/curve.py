"""Single-pass wrapper-curve kernel: a core's whole staircase in one sweep.

:func:`wrapper_curve` computes everything the schedulers ever ask about a
core's wrapper in one incremental Best-Fit-Decreasing sweep over the TAM
widths ``1..max_width``:

* the testing-time staircase ``T(1), ..., T(max_width)`` (Figure 1),
* the wrapper scan-in/scan-out lengths behind each point,
* the Pareto-optimal widths (where the staircase actually steps down).

The legacy path (:func:`repro.wrapper.design_wrapper.design_wrapper`) runs
the full BFD heuristic from scratch at every width -- re-sorting scan
chains, distributing every wrapper I/O cell one heap operation at a time
and allocating a tuple of ``WrapperChain`` objects per width.  The kernel
produces bit-identical lengths while doing none of that per-width work:

* internal scan chains are sorted **once**; the per-width LPT fill operates
  on a flat integer heap, and once the width reaches the number of internal
  chains the partition saturates (each chain alone in a bin), so the fill
  and its ascending order are known without LPT or a sort;
* wrapper input/output/bidir cells are distributed **analytically**: the
  one-cell-at-a-time best-fit loop of
  :func:`repro.wrapper.partition._distribute` is a water-filling process
  whose final per-chain lengths can be computed in closed form (fill every
  eligible chain to a common level, then hand the remainder to the chains
  that the heap's tie-break -- secondary key, then index -- would have
  picked); each width sorts its internal fill once for both phases;
* a core without bidirectional cells takes the **bin-load** path, in
  closed form.  Its raw ``si`` (``so``) at width ``w`` is the longest chain
  after adding ``I`` (``O``) unit cells, each to the then-shortest LPT load.
  That fill is optimal, since a cell on the shortest chain never rises
  above the ceiling of the mean: with ``top`` the largest LPT load,
  ``si = max(top, ceil((sum(chains) + I) / w))``, likewise ``so``.  Tied
  chains are interchangeable, so LPT runs on a plain integer heap and keeps
  only ``top`` (``L``, below, from ``w >= n`` on).  With bidirs they are
  not: the scan-in/scan-out placement decides where the bidirs can go;
* past the **tail width** the design is known without computing it.  Let
  ``L`` be the longest internal chain, ``n`` the chain count and ``S`` the
  cell total ``sum(chains) + I + O + B``.  At a width ``w >= n`` with
  ``w*L >= S`` the chains can absorb ``w*L - sum(chains) >= I`` input (and
  as many output) cells below ``L``, and the bidir capacity below ``L`` is
  ``sum(L - max(si, so)) >= w*L - sum(chains) - I - O >= B`` because
  ``min(si, so)`` is at least the chain's internal fill.  So ``si = so = L``,
  the lower bound of every design, at every width from
  ``max(n, ceil(S / L))`` on, and those widths are filled by copying;
* **dominated widths** are skipped in runs.  A width ``w`` enters the
  staircase only if its raw time beats ``T(w-1)``.  A wrapper chain holds
  ``L`` or more cells and the ``w`` chains carry all scan-in (-out) bits,
  so ``si >= max(L, ceil((sum(chains) + I + B) / w))``, likewise ``so``:
  the bin-load formula with ``top = L``.  Its time bounds the step's and
  does not grow with ``w``, so after each evaluated width the kernel walks
  it to the next width that can beat ``T(w-1)`` and copies the run before
  it in one ``extend`` per array.  No bound is below ``(1 + L) * p + L``,
  so once ``T(w-1)`` is down to that, the rest is copied at once;
* results are stored in flat integer arrays, not object tuples; the BFD
  design with exactly ``w`` chains is not stored, only the staircase.

``design_wrapper`` remains the executable reference implementation; the
property tests in ``tests/test_wrapper_curve.py`` pin the kernel to it on
randomized cores.

Curves are memoised per process in a *growing* per-core cache: asking for a
wider curve extends the stored arrays instead of recomputing the prefix,
and narrower requests are served as views.  The cache is unbounded (curve
data is a few hundred integers per core) -- :func:`clear_curve_cache` drops
it for benchmarks that need a cold start.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.soc.core import Core

DEFAULT_MAX_WIDTH = 64


@dataclass(frozen=True)
class ParetoPoint:
    """A Pareto-optimal (TAM width, testing time) pair for one core."""

    width: int
    time: int

    @property
    def area(self) -> int:
        """TAM-wire-cycles occupied by the core test at this point."""
        return self.width * self.time


# ----------------------------------------------------------------------
# Analytic (water-filling) emulation of the one-cell-at-a-time distributor
# ----------------------------------------------------------------------
def _water_level(ordered: Sequence[int], count: int) -> Tuple[int, int, int]:
    """Water-fill ``count`` unit cells over the ascending values ``ordered``.

    Returns ``(level, pool_size, remainder)``: every chain whose value is at
    most ``level`` ends up *at* ``level``, ``remainder`` of them get one
    extra cell, and ``pool_size`` is the number of such chains counted in
    ascending-value order.  This is exactly the multiset the sequential
    "add each cell to the current minimum" heap loop produces.
    """
    level = ordered[0]
    pool = 0
    budget = count
    for value in ordered:
        need = (value - level) * pool
        if need > budget:
            break
        budget -= need
        level = value
        pool += 1
    level += budget // pool
    return level, pool, budget % pool


def _testing_time(scan_in: int, scan_out: int, patterns: int) -> int:
    """``T = (1 + max(si, so)) * p + min(si, so)``."""
    if scan_in > scan_out:
        return (1 + scan_in) * patterns + scan_out
    return (1 + scan_out) * patterns + scan_in


def _fill_cells(
    values: List[int],
    order: List[int],
    count: int,
    secondary: Optional[Sequence[int]] = None,
) -> List[int]:
    """Distribute ``count`` cells, one at a time, onto the minimum chain.

    Emulates ``_distribute``: each cell goes to the chain with the smallest
    ``(values[i], secondary[i], i)`` key and increments ``values[i]`` only
    (``secondary`` stays constant during the phase).  ``order`` lists the
    chain indices by ascending ``(values[i], i)``.  The final per-chain
    values are reproduced analytically: the eligible pool (a prefix of
    ``order``) fills to a common level and the heap's tie-break hands the
    remainder to the pool chains with the smallest ``(secondary, index)``.
    ``secondary=None`` means ``values`` itself (input cells are keyed on the
    internal fill), whose tie-break order is ``order`` already.
    """
    result = list(values)
    if count == 0:
        return result
    level, pool_size, extra = _water_level([values[i] for i in order], count)
    pool = order[:pool_size]
    for index in pool:
        result[index] = level
    if extra:
        if secondary is not None:
            pool = sorted(sorted(pool), key=secondary.__getitem__)
        for index in pool[:extra]:
            result[index] = level + 1
    return result


def _raw_scan_lengths(
    internal: List[int], order: List[int], inputs: int, outputs: int, bidirs: int
) -> Tuple[int, int]:
    """Longest scan-in/scan-out of a core with bidir cells, over chains with
    the given internal fills.

    ``order`` lists the chain indices by ascending ``(internal[i], i)``: the
    input and output phases both start from the internal fill, so one sort
    serves them both.  Bidir cells are keyed on ``(max(si, so), si + so, i)``
    and lengthen both paths: water-fill the per-chain maxima; a pool chain
    raised from ``m`` to level ``L`` has sum key ``si + so + 2*(L - m)``, so
    ranking the pool by ``si + so - 2*m`` (the common ``2*L`` dropped) is
    the heap's tie-break.
    """
    if len(internal) == 1:
        base = internal[0]
        return base + inputs + bidirs, base + outputs + bidirs
    scan_in = _fill_cells(internal, order, inputs)
    scan_out = _fill_cells(internal, order, outputs, scan_in)
    maxima = list(map(max, scan_in, scan_out))
    skew = [a + b - 2 * m for a, b, m in zip(scan_in, scan_out, maxima)]
    by_max = sorted(range(len(maxima)), key=maxima.__getitem__)
    raised = _fill_cells(maxima, by_max, bidirs, skew)
    return (
        max([a + r - m for a, r, m in zip(scan_in, raised, maxima)]),
        max([b + r - m for b, r, m in zip(scan_out, raised, maxima)]),
    )


# ----------------------------------------------------------------------
# The growing per-core curve store
# ----------------------------------------------------------------------
class _CurveData:
    """Arrays for one core, grown monotonically to the widest request seen.

    Index ``w - 1`` holds the value at TAM width ``w``: ``times`` /
    ``scan_in`` / ``scan_out`` describe the best design with *at most* ``w``
    chains (what the non-increasing staircase is made of), and
    ``best_widths[w-1]`` records which chain count achieves it.  The BFD
    design with *exactly* ``w`` chains is :meth:`step`; it is not stored.
    ``evaluated`` counts the widths whose step was computed.
    """

    __slots__ = (
        "lengths",
        "ascending",
        "patterns",
        "inputs",
        "outputs",
        "bidirs",
        "longest",
        "input_bits",
        "output_bits",
        "tail_width",
        "evaluated",
        "best_widths",
        "times",
        "scan_in",
        "scan_out",
        "pareto_widths",
    )

    def __init__(self, core: Core) -> None:
        lengths = tuple(sorted(core.scan_chains, reverse=True))
        self.lengths: Tuple[int, ...] = lengths
        # Chain indices by ascending ``(length, index)``, for the bidir path.
        ascending = sorted(range(len(lengths)), key=lengths.__getitem__) if core.bidirs else []
        self.ascending: List[int] = ascending
        self.patterns = core.patterns
        self.inputs = core.inputs
        self.outputs = core.outputs
        self.bidirs = core.bidirs
        self.longest = lengths[0] if lengths else 0
        # Scan bits of the scan-in and the scan-out phase.
        bits = sum(lengths) + core.bidirs
        self.input_bits = bits + core.inputs
        self.output_bits = bits + core.outputs
        # The first width of the closed-form tail (``None``: no chains).
        self.tail_width: Optional[int] = None
        if lengths:
            cells = bits + core.inputs + core.outputs
            self.tail_width = max(len(lengths), -(-cells // self.longest))
        self.evaluated = 0
        self.best_widths = array("q")
        self.times = array("q")
        self.scan_in = array("q")
        self.scan_out = array("q")
        self.pareto_widths = array("q")

    def _internal_fill(self, width: int) -> Tuple[List[int], List[int]]:
        """Per-chain internal lengths of the LPT partition at ``width``, and
        the chain indices by ascending ``(length, index)``."""
        lengths = self.lengths
        chains = len(lengths)
        if width >= chains:
            # Saturated: every internal chain sits alone in a bin, so both
            # the fill and its ascending order are known without LPT or a sort.
            fill = list(lengths) + [0] * (width - chains)
            return fill, list(range(chains, width)) + self.ascending
        bins = [0] * width
        heap: List[Tuple[int, int]] = [(0, index) for index in range(width)]
        for length in lengths:
            load, index = heapq.heappop(heap)
            load += length
            bins[index] = load
            heapq.heappush(heap, (load, index))
        return bins, sorted(range(width), key=bins.__getitem__)

    def _scan_floor(self, top: int, width: int) -> Tuple[int, int]:
        """``(si, so)`` when ``width`` chains share every scan bit as evenly
        as whole cells allow and none is below ``top``."""
        scan_in = -(-self.input_bits // width)
        scan_out = -(-self.output_bits // width)
        return (scan_in if scan_in > top else top), (scan_out if scan_out > top else top)

    def step(self, width: int) -> Tuple[int, int]:
        """``(si, so)`` of the BFD design with *exactly* ``width`` chains."""
        tail = self.tail_width
        if tail is not None and width >= tail:
            return self.longest, self.longest
        if self.bidirs:
            fill, order = self._internal_fill(width)
            return _raw_scan_lengths(fill, order, self.inputs, self.outputs, self.bidirs)
        # LPT on plain loads: the ``width`` longest chains open one bin each
        # and, ascending, already form a heap.  Only the top load matters.
        lengths = self.lengths
        if width >= len(lengths):
            return self._scan_floor(self.longest, width)
        heap = list(lengths[width - 1 :: -1])
        for length in lengths[width:]:
            heapq.heapreplace(heap, heap[0] + length)
        return self._scan_floor(max(heap), width)

    def time_bound(self, width: int) -> int:
        """A lower bound on the testing time of :meth:`step` at ``width``:
        the bin-load formula with the longest internal chain as ``top``."""
        scan_in, scan_out = self._scan_floor(self.longest, width)
        return _testing_time(scan_in, scan_out, self.patterns)

    def _repeat_last(self, copies: int) -> None:
        """Append ``copies`` repeats of the last width-indexed entries."""
        for field in (self.best_widths, self.times, self.scan_in, self.scan_out):
            field.extend(field[-1:] * copies)

    def extend(self, max_width: int) -> None:
        """Grow the arrays so widths ``1..max_width`` are all computed."""
        times = self.times
        width = len(times) + 1
        patterns = self.patterns
        tail = self.tail_width
        last = max_width if tail is None else min(max_width, tail)
        # No width's bound goes below the time of chains all at ``longest``.
        floor = _testing_time(self.longest, self.longest, patterns)
        while width <= last:
            # Widths whose bound cannot go below ``T(w-1)`` repeat their
            # predecessor without running the step: copy the run at once.
            end = width
            if width > 1:
                best = times[-1]
                end = last + 1 if best <= floor else width
                while end <= last and self.time_bound(end) >= best:
                    end += 1
            if end == width:
                self.evaluated += 1
                si, so = self.step(width)
                raw_time = _testing_time(si, so, patterns)
                if width == 1 or raw_time < times[-1]:
                    # A strict improvement: this width starts a new staircase
                    # step (and is therefore Pareto-optimal).
                    self.best_widths.append(width)
                    times.append(raw_time)
                    self.scan_in.append(si)
                    self.scan_out.append(so)
                    self.pareto_widths.append(width)
                    width += 1
                    continue
                end = width + 1
            self._repeat_last(end - width)
            width = end
        # Past the tail width every width repeats the tail's entries; the
        # Pareto widths stay as they are.
        if max_width > len(times):
            self._repeat_last(max_width - len(times))


class WrapperCurve:
    """A core's complete wrapper staircase over TAM widths ``1..max_width``.

    Array-backed view over the per-core curve store: width-indexed testing
    times, scan-in/scan-out lengths (of the best design using at most that
    many wrapper chains) and the Pareto-optimal widths.  All lookups are
    O(1) or a binary search over the Pareto widths.
    """

    __slots__ = (
        "_core",
        "_max_width",
        "_data",
        "_pareto_count",
        "_times",
        "_pareto_points",
    )

    def __init__(self, core: Core, max_width: int, data: _CurveData) -> None:
        self._core = core
        self._max_width = max_width
        self._data = data
        self._pareto_count = bisect_right(data.pareto_widths, max_width)
        self._times: Optional[Tuple[int, ...]] = None
        self._pareto_points: Optional[Tuple[ParetoPoint, ...]] = None

    # -- identity ------------------------------------------------------
    @property
    def core(self) -> Core:
        """The core this curve describes."""
        return self._core

    @property
    def max_width(self) -> int:
        """The largest TAM width the curve covers."""
        return self._max_width

    # -- the staircase -------------------------------------------------
    @property
    def times(self) -> Tuple[int, ...]:
        """``(T(1), ..., T(max_width))`` -- the Figure 1 staircase."""
        if self._times is None:
            self._times = tuple(self._data.times[: self._max_width])
        return self._times

    def time(self, width: int) -> int:
        """Testing time with at most ``width`` wrapper chains (O(1))."""
        self._check_width(width)
        return self._data.times[width - 1]

    def scan_lengths(self, width: int) -> Tuple[int, int]:
        """``(si, so)`` of the best design with at most ``width`` chains."""
        self._check_width(width)
        data = self._data
        return data.scan_in[width - 1], data.scan_out[width - 1]

    def best_width(self, width: int) -> int:
        """The chain count ``w' <= width`` whose BFD design tests fastest."""
        self._check_width(width)
        return self._data.best_widths[width - 1]

    def preemption_overhead(self, width: int) -> int:
        """``si + so`` -- cycles added per preemption at ``width``."""
        scan_in, scan_out = self.scan_lengths(width)
        return scan_in + scan_out

    def _check_width(self, width: int) -> None:
        if not 1 <= width <= self._max_width:
            raise ValueError(
                f"width must be in 1..{self._max_width}, got {width}"
            )

    # -- Pareto structure ----------------------------------------------
    @property
    def pareto_widths(self) -> Sequence[int]:
        """The Pareto-optimal widths, ascending (width 1 always included)."""
        return self._data.pareto_widths[: self._pareto_count]

    def pareto_points(self) -> Tuple[ParetoPoint, ...]:
        """Pareto-optimal (width, time) points, in increasing width order.

        Materialised once per curve view and reused by every caller.
        """
        if self._pareto_points is None:
            times = self._data.times
            self._pareto_points = tuple(
                ParetoPoint(width=width, time=times[width - 1])
                for width in self.pareto_widths
            )
        return self._pareto_points

    @property
    def max_pareto_width(self) -> int:
        """The largest Pareto-optimal width (more wires buy nothing)."""
        return self._data.pareto_widths[self._pareto_count - 1]

    @property
    def min_time(self) -> int:
        """The smallest achievable testing time (at the max Pareto width)."""
        return self._data.times[self.max_pareto_width - 1]

    @property
    def min_area(self) -> int:
        """``min_w w * T(w)`` -- smallest TAM-wire-cycle footprint."""
        times = self._data.times
        return min(width * times[width - 1] for width in self.pareto_widths)

    def effective_width(self, width: int) -> int:
        """Largest Pareto-optimal width <= ``width`` (binary search)."""
        if width < 1:
            raise ValueError("width must be at least 1")
        widths = self._data.pareto_widths
        index = bisect_right(widths, width, 0, self._pareto_count)
        return widths[index - 1] if index else widths[0]

    def first_width_within(self, target: float) -> int:
        """Smallest width whose testing time is at most ``target``.

        Binary search over the non-increasing staircase; returns
        ``max_width`` when even the widest design misses the target.
        """
        times = self._data.times
        low, high = 1, self._max_width
        if times[high - 1] > target:
            return high
        while low < high:
            mid = (low + high) // 2
            if times[mid - 1] <= target:
                high = mid
            else:
                low = mid + 1
        return low


# ----------------------------------------------------------------------
# The per-process curve cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CurveCacheInfo:
    """Statistics of the per-process wrapper-curve cache.

    ``widths_computed`` counts the widths whose design the kernel evaluated;
    the widths the bound settles and the copies past the tail are not counted.
    """

    hits: int
    misses: int
    cores: int
    widths_computed: int


# Fork-local by design: the per-process curve memo caches pure derived
# values (T(1..W) staircases are a function of the core alone), so each
# worker's private copy can only diverge in *coverage*, never in content;
# the executor pre-warms the hot pairs before forking.
_DATA: Dict[Core, _CurveData] = {}  # repro: fork-local
_VIEWS: Dict[Tuple[Core, int], WrapperCurve] = {}  # repro: fork-local
_HITS = 0  # repro: fork-local
_MISSES = 0  # repro: fork-local


def wrapper_curve(core: Core, max_width: int = DEFAULT_MAX_WIDTH) -> WrapperCurve:
    """The :class:`WrapperCurve` of ``core`` over widths ``1..max_width``.

    Memoised per process: per-core arrays grow to the widest request seen
    and narrower requests are served as views of the same arrays.
    """
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    global _HITS, _MISSES
    key = (core, max_width)
    view = _VIEWS.get(key)
    if view is not None:
        _HITS += 1
        return view
    _MISSES += 1
    data = _DATA.get(core)
    if data is None:
        data = _CurveData(core)
        _DATA[core] = data
    data.extend(max_width)
    view = WrapperCurve(core, max_width, data)
    _VIEWS[key] = view
    return view


def curve_cache_info() -> CurveCacheInfo:
    """Hit/miss statistics of the per-process wrapper-curve cache."""
    return CurveCacheInfo(
        hits=_HITS,
        misses=_MISSES,
        cores=len(_DATA),
        widths_computed=sum(data.evaluated for data in _DATA.values()),
    )


def clear_curve_cache() -> None:
    """Drop every memoised wrapper curve in this process (stats reset too)."""
    global _HITS, _MISSES
    _DATA.clear()
    _VIEWS.clear()
    _HITS = 0
    _MISSES = 0


#: The array fields of one per-core table.  The first four are
#: width-indexed over ``1..W``; ``pareto_widths`` is the ascending subset
#: of widths where the staircase steps down.
CURVE_TABLE_FIELDS: Tuple[str, ...] = (
    "best_widths",
    "times",
    "scan_in",
    "scan_out",
    "pareto_widths",
)
