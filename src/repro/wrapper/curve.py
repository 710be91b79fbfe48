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
* past the **tail width** the design is known without computing it.  Let
  ``L`` be the longest internal chain, ``n`` the chain count and ``S`` the
  cell total ``sum(chains) + I + O + B``.  At a width ``w >= n`` with
  ``w*L >= S`` the chains can absorb ``w*L - sum(chains) >= I`` input (and
  as many output) cells below ``L``, and the bidir capacity below ``L`` is
  ``sum(L - max(si, so)) >= w*L - sum(chains) - I - O >= B`` because
  ``min(si, so)`` is at least the chain's internal fill.  So ``si = so = L``,
  the lower bound of every design, at every width from
  ``max(n, ceil(S / L))`` on, and those widths are filled by copying;
* results are stored in flat integer arrays, not object tuples.

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
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    pool = 1
    budget = count
    total = len(ordered)
    while pool < total:
        gap = ordered[pool] - level
        need = gap * pool
        if need > budget:
            break
        budget -= need
        level = ordered[pool]
        pool += 1
    level += budget // pool
    return level, pool, budget % pool


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
    """Longest scan-in/scan-out over chains with the given internal fills.

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
    if bidirs == 0:
        return max(scan_in), max(scan_out)
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

    Index ``w - 1`` holds the value at TAM width ``w``.  ``raw_*`` arrays
    describe the BFD design with *exactly* ``w`` wrapper chains; ``times``
    / ``scan_in`` / ``scan_out`` describe the best design with *at most*
    ``w`` chains (what the non-increasing staircase is made of), and
    ``best_widths[w-1]`` records which chain count achieves it.
    """

    __slots__ = (
        "lengths",
        "patterns",
        "inputs",
        "outputs",
        "bidirs",
        "raw_times",
        "raw_scan_in",
        "raw_scan_out",
        "best_widths",
        "times",
        "scan_in",
        "scan_out",
        "pareto_widths",
    )

    def __init__(self, core: Core) -> None:
        self.lengths: Tuple[int, ...] = tuple(sorted(core.scan_chains, reverse=True))
        self.patterns = core.patterns
        self.inputs = core.inputs
        self.outputs = core.outputs
        self.bidirs = core.bidirs
        self.raw_times = array("q")
        self.raw_scan_in = array("q")
        self.raw_scan_out = array("q")
        self.best_widths = array("q")
        self.times = array("q")
        self.scan_in = array("q")
        self.scan_out = array("q")
        self.pareto_widths = array("q")

    @property
    def tail_width(self) -> Optional[int]:
        """The first width of the closed-form tail (``None``: no chains)."""
        lengths = self.lengths
        if not lengths:
            return None
        cells = sum(lengths) + self.inputs + self.outputs + self.bidirs
        return max(len(lengths), -(-cells // lengths[0]))

    def _internal_fill(
        self, width: int, ascending: List[int]
    ) -> Tuple[List[int], List[int]]:
        """Per-chain internal lengths of the LPT partition at ``width``, and
        the chain indices by ascending ``(length, index)``; ``ascending`` is
        that order for the chains alone."""
        lengths = self.lengths
        chains = len(lengths)
        if width >= chains:
            # Saturated: every internal chain sits alone in a bin, so both
            # the fill and its ascending order are known without LPT or a sort.
            fill = list(lengths) + [0] * (width - chains)
            return fill, list(range(chains, width)) + ascending
        bins = [0] * width
        heap: List[Tuple[int, int]] = [(0, index) for index in range(width)]
        for length in lengths:
            load, index = heapq.heappop(heap)
            load += length
            bins[index] = load
            heapq.heappush(heap, (load, index))
        return bins, sorted(range(width), key=bins.__getitem__)

    def extend(self, max_width: int) -> None:
        """Grow the arrays so widths ``1..max_width`` are all computed."""
        start = len(self.raw_times) + 1
        if max_width < start:
            return
        patterns = self.patterns
        tail = self.tail_width
        last = max_width if tail is None else min(max_width, tail)
        ascending = sorted(range(len(self.lengths)), key=self.lengths.__getitem__)
        for width in range(start, last + 1):
            if width == tail:
                si = so = self.lengths[0]
            else:
                fill, order = self._internal_fill(width, ascending)
                si, so = _raw_scan_lengths(
                    fill, order, self.inputs, self.outputs, self.bidirs
                )
            raw_time = (1 + (si if si > so else so)) * patterns + (
                so if si > so else si
            )
            self.raw_times.append(raw_time)
            self.raw_scan_in.append(si)
            self.raw_scan_out.append(so)
            if width == 1 or raw_time < self.times[-1]:
                # A strict improvement: this width starts a new staircase step
                # (and is therefore Pareto-optimal).
                self.best_widths.append(width)
                self.times.append(raw_time)
                self.scan_in.append(si)
                self.scan_out.append(so)
                self.pareto_widths.append(width)
            else:
                self.best_widths.append(self.best_widths[-1])
                self.times.append(self.times[-1])
                self.scan_in.append(self.scan_in[-1])
                self.scan_out.append(self.scan_out[-1])
        # Past the tail width every width repeats the tail's entries; the
        # Pareto widths (the last table field) stay as they are.
        copies = max_width - len(self.raw_times)
        if copies > 0:
            for name in CURVE_TABLE_FIELDS[:-1]:
                field = getattr(self, name)
                field.extend(field[-1:] * copies)


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

    def raw_time(self, width: int) -> int:
        """Testing time of the BFD design with *exactly* ``width`` chains."""
        self._check_width(width)
        return self._data.raw_times[width - 1]

    def scan_lengths(self, width: int) -> Tuple[int, int]:
        """``(si, so)`` of the best design with at most ``width`` chains."""
        self._check_width(width)
        data = self._data
        return data.scan_in[width - 1], data.scan_out[width - 1]

    def raw_scan_lengths(self, width: int) -> Tuple[int, int]:
        """``(si, so)`` of the BFD design with *exactly* ``width`` chains."""
        self._check_width(width)
        data = self._data
        return data.raw_scan_in[width - 1], data.raw_scan_out[width - 1]

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
    """Statistics of the per-process wrapper-curve cache."""

    hits: int
    misses: int
    cores: int
    widths_computed: int

    @property
    def currsize(self) -> int:
        """Number of cached (core, max_width) views (lru_cache-compatible)."""
        return self.cores


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
        widths_computed=sum(len(data.raw_times) for data in _DATA.values()),
    )


def clear_curve_cache() -> None:
    """Drop every memoised wrapper curve in this process (stats reset too)."""
    global _HITS, _MISSES
    _DATA.clear()
    _VIEWS.clear()
    _HITS = 0
    _MISSES = 0


# ----------------------------------------------------------------------
# Shared-memory export/import of the per-core tables
# ----------------------------------------------------------------------
#: The array fields of one per-core table, in export order.  The first
#: four are width-indexed over ``1..W`` (one entry per computed width);
#: the middle three share that indexing; ``pareto_widths`` is the
#: ascending subset of widths where the staircase steps down.
CURVE_TABLE_FIELDS: Tuple[str, ...] = (
    "raw_times",
    "raw_scan_in",
    "raw_scan_out",
    "best_widths",
    "times",
    "scan_in",
    "scan_out",
    "pareto_widths",
)


def export_curve_tables() -> List[Tuple[Core, Tuple["array[int]", ...]]]:
    """Snapshot every memoised per-core table, for shm publication.

    Each entry pairs a core with its arrays in :data:`CURVE_TABLE_FIELDS`
    order.  The arrays are the live cache arrays -- callers must copy
    (e.g. ``tobytes``) rather than retain them.
    """
    return [
        (core, tuple(getattr(data, name) for name in CURVE_TABLE_FIELDS))
        for core, data in _DATA.items()
    ]


def seed_curve_table(
    core: Core, fields: Sequence[Union[bytes, bytearray, memoryview]]
) -> bool:
    """Install one exported per-core table into this process's cache.

    ``fields`` holds one ``int64`` buffer per :data:`CURVE_TABLE_FIELDS`
    entry (any bytes-like object).  The buffers are *copied* into fresh
    growable arrays, so later wider requests extend them normally.
    Returns ``False`` without touching the cache when the core is already
    present (the local table may be wider) or the export is empty.
    """
    if len(fields) != len(CURVE_TABLE_FIELDS):
        raise ValueError(
            f"expected {len(CURVE_TABLE_FIELDS)} field buffers, got {len(fields)}"
        )
    if core in _DATA:
        return False
    data = _CurveData(core)
    for name, buffer in zip(CURVE_TABLE_FIELDS, fields):
        getattr(data, name).frombytes(buffer)
    widths = len(data.raw_times)
    if widths == 0:
        return False
    staircase = (data.best_widths, data.times, data.scan_in, data.scan_out)
    if any(len(field) != widths for field in (data.raw_scan_in, data.raw_scan_out, *staircase)):
        raise ValueError(f"inconsistent curve table for core {core!r}")
    _DATA[core] = data
    return True
