"""Rectangle representation of core tests (paper Section 3).

Each core's test is represented by a *set* of rectangles, one per
Pareto-optimal TAM width: the rectangle height is the TAM width and its width
is the core testing time at that TAM width.  The generalized rectangle
packing problem ``P_rp`` selects one rectangle per core and packs them into a
bin of height ``W`` (the total SOC TAM width) minimizing the filled width
(the SOC testing time).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.soc.core import Core
from repro.soc.soc import Soc
from repro.wrapper.curve import (
    DEFAULT_MAX_WIDTH,
    ParetoPoint,
    WrapperCurve,
    wrapper_curve,
)
from repro.wrapper.pareto import preferred_width


@dataclass(frozen=True)
class Rectangle:
    """One candidate rectangle for a core: (TAM width, testing time)."""

    core: str
    width: int
    time: int

    @property
    def area(self) -> int:
        """TAM wire-cycles occupied by this rectangle."""
        return self.width * self.time


class RectangleSet:
    """The Pareto-optimal rectangles for one core (set ``R_i`` in the paper).

    Backed by the single-pass wrapper-curve kernel
    (:func:`repro.wrapper.curve.wrapper_curve`): construction costs one
    curve lookup and every width/time query is O(1) or a binary search over
    the Pareto widths.  The Pareto data is read from the curve, so no
    :class:`ParetoPoint` is built until :attr:`points` asks for them (the
    curve view builds them once for every set that shares it).
    """

    def __init__(self, core: Core, max_width: int = DEFAULT_MAX_WIDTH) -> None:
        if max_width <= 0:
            raise ValueError("max_width must be positive")
        self._core = core
        self._max_width = max_width
        self._curve: WrapperCurve = wrapper_curve(core, max_width)
        # Direct view of the curve's width-indexed staircase for the O(1)
        # time_at fast path (the shared array only ever grows in place, so
        # holding a reference is safe).
        self._times = self._curve.times

    # ------------------------------------------------------------------
    @property
    def core(self) -> Core:
        """The core these rectangles describe."""
        return self._core

    @property
    def core_name(self) -> str:
        """The core's name."""
        return self._core.name

    @property
    def max_width(self) -> int:
        """Maximum TAM width considered when enumerating Pareto points."""
        return self._max_width

    @property
    def curve(self) -> WrapperCurve:
        """The full wrapper curve behind these rectangles."""
        return self._curve

    @property
    def points(self) -> Tuple[ParetoPoint, ...]:
        """All Pareto-optimal (width, time) points, by increasing width."""
        return self._curve.pareto_points()

    @property
    def rectangles(self) -> List[Rectangle]:
        """The Pareto-optimal rectangles as :class:`Rectangle` objects."""
        return [
            Rectangle(core=self._core.name, width=point.width, time=point.time)
            for point in self.points
        ]

    def __len__(self) -> int:
        return len(self._curve.pareto_widths)

    # ------------------------------------------------------------------
    # Width / time lookups
    # ------------------------------------------------------------------
    def effective_width(self, width: int) -> int:
        """Largest Pareto-optimal width that is <= ``width``.

        Assigning any width between two Pareto points wastes wires; the
        scheduler therefore snaps every assignment down to a Pareto width
        (found by binary search).
        """
        return self._curve.effective_width(width)

    def time_at(self, width: int) -> int:
        """Core testing time when given ``width`` TAM wires.

        The curve's ``times`` array already holds the best design with *at
        most* ``width`` chains (flat between Pareto steps), so no snapping
        to a Pareto width is needed -- one O(1) array read.
        """
        if width < 1:
            raise ValueError("width must be at least 1")
        if width > self._max_width:
            width = self._max_width
        return self._times[width - 1]

    @property
    def max_pareto_width(self) -> int:
        """The largest Pareto-optimal width."""
        return self._curve.max_pareto_width

    @property
    def min_time(self) -> int:
        """The smallest achievable testing time (at the largest Pareto width)."""
        return self._curve.min_time

    @property
    def min_area(self) -> int:
        """``min_w w * T(w)`` -- used by the lower bound of Table 1."""
        return self._curve.min_area

    def preferred_width(self, percent: float, delta: int, width_cap: int) -> int:
        """The paper's preferred width, clamped to a Pareto width <= ``width_cap``."""
        cap = max(1, min(self._max_width, width_cap))
        width = preferred_width(self._core, max_width=cap, percent=percent, delta=delta)
        return self.effective_width(min(width, cap))

    def preemption_overhead(self, width: int) -> int:
        """Cycles added each time this core's test is preempted at ``width``.

        Like :meth:`time_at`, the scan-length arrays are flat between
        Pareto steps, so the lookup needs no snapping.
        """
        return self._curve.preemption_overhead(min(width, self._max_width))


class SocPlan:
    """Per-(SOC, max width) inputs of every scheduler run, compiled once.

    A best-over-grid solve runs the scheduler dozens of times on one SOC,
    and a session solves the same SOC again and again.  Everything those
    runs share is gathered here in ``soc.cores`` order: core names (and
    ``index``, their positions), rectangle sets, test powers, BIST
    resources, each core's rank in descending name order (the scheduler's
    heap tie-break, with ``by_rank`` mapping a rank back to its core) and
    each core's smallest area ``min_w w * T(w)`` with their total (the
    scheduler's area floor).  ``times`` holds each set's time staircase
    ``T(1..max_width)`` and ``pareto_widths`` its ascending Pareto widths,
    so a run snaps a width with one ``bisect`` over the tuple and reads its
    time with one index, not through :class:`RectangleSet`'s methods.
    ``max_width`` is the ``max_width`` all the sets were built with
    (``None`` if they disagree), checked once here instead of once per
    run.  Two maps fill lazily: the preferred-width vector per
    ``(percent, delta, width cap)`` and the run-ordering estimate per
    ``(vector, total width)``.  :meth:`unstarted_buckets` remembers the
    last run's unstarted-core heaps (one bucket set, ``n`` ints), so the
    slack variants of one grid point, which share their vector and run
    back to back, copy the heaps instead of walking every core.

    Build one with :func:`soc_plan`, which stores it on the
    :class:`RectangleSets` it reads, so the plan lives exactly as long as
    those sets.  The fields other than that memo are never rebound after
    construction.
    """

    __slots__ = (
        "soc",
        "names",
        "index",
        "rectangles",
        "powers",
        "bist_resources",
        "desc_rank",
        "by_rank",
        "min_areas",
        "min_area_total",
        "any_bist",
        "max_width",
        "times",
        "pareto_widths",
        "_vectors",
        "_estimates",
        "_last_buckets",
        "__weakref__",
    )

    def __init__(self, soc: Soc, rectangle_sets: Mapping[str, RectangleSet]) -> None:
        self.soc = soc
        self.names: Tuple[str, ...] = soc.core_names
        self.index: Dict[str, int] = {name: index for index, name in enumerate(self.names)}
        self.rectangles: Tuple[RectangleSet, ...] = tuple(
            rectangle_sets[name] for name in self.names
        )
        self.powers: Tuple[float, ...] = tuple(core.test_power for core in soc.cores)
        self.bist_resources: Tuple[Optional[str], ...] = tuple(
            core.bist_resource for core in soc.cores
        )
        descending = sorted(self.names, reverse=True)
        rank = {name: position for position, name in enumerate(descending)}
        self.desc_rank: Tuple[int, ...] = tuple(rank[name] for name in self.names)
        self.by_rank: Tuple[int, ...] = tuple(self.index[name] for name in descending)
        self.min_areas: Tuple[int, ...] = tuple(rect.min_area for rect in self.rectangles)
        self.min_area_total = sum(self.min_areas)
        self.any_bist = any(resource is not None for resource in self.bist_resources)
        widths = {rect.max_width for rect in self.rectangles}
        self.max_width: Optional[int] = widths.pop() if len(widths) == 1 else None
        self.times: Tuple[Tuple[int, ...], ...] = tuple(
            rect.curve.times for rect in self.rectangles
        )
        self.pareto_widths: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(rect.curve.pareto_widths) for rect in self.rectangles
        )
        self._vectors: Dict[Tuple[float, int, int], Tuple[int, ...]] = {}
        self._estimates: Dict[Tuple[Tuple[int, ...], int], int] = {}
        self._last_buckets: Optional[
            Tuple[int, Tuple[int, ...], Dict[int, List[int]]]
        ] = None

    def preferred_vector(
        self, percent: float, delta: int, width_cap: int
    ) -> Tuple[int, ...]:
        """Every core's :meth:`RectangleSet.preferred_width`, in core order."""
        key = (percent, delta, width_cap)
        vector = self._vectors.get(key)
        if vector is None:
            vector = tuple(
                rect.preferred_width(percent, delta, width_cap)
                for rect in self.rectangles
            )
            self._vectors[key] = vector
        return vector

    def estimate(self, vector: Tuple[int, ...], total_width: int) -> int:
        """``max(ceil(area / total_width), bottleneck)`` at the vector's widths.

        The area and bottleneck lower bounds of one run, which the grid
        sweep sorts its runs by.
        """
        key = (vector, total_width)
        value = self._estimates.get(key)
        if value is None:
            area = 0
            bottleneck = 0
            for rect, width in zip(self.rectangles, vector):
                time = rect.time_at(width)
                area += width * time
                if time > bottleneck:
                    bottleneck = time
            value = max(-(-area // total_width), bottleneck)
            self._estimates[key] = value
        return value

    def unstarted_buckets(
        self, vector: Sequence[int], total_width: int
    ) -> Dict[int, List[int]]:
        """A run's unstarted cores as one heap per requested width.

        Core ``i`` goes to the bucket of width ``min(vector[i],
        total_width)`` as the int key ``rank - T(vector[i]) * n``, where
        ``n`` is the core count and ``rank`` the core's ``desc_rank``.
        Since ``0 <= rank < n`` the keys order exactly like ``(-T, rank)``:
        ``key // n`` is ``-T`` and ``by_rank[key % n]`` the core.

        The heaps of the last call are kept as ``(total_width, vector,
        heaps)``: a call with the same width and vector (the next slack
        variant of a grid point) gets copies of them instead of a pass over
        the cores.  The caller may pop from what it gets; the kept lists
        are never handed out, and the memo is replaced whole, so threads
        sharing the plan cannot corrupt each other's heaps.
        """
        key = tuple(vector)
        last = self._last_buckets
        if last is None or last[0] != total_width or last[1] != key:
            last = (total_width, key, self._build_buckets(key, total_width))
            self._last_buckets = last
        return {width: heap[:] for width, heap in last[2].items()}

    def _build_buckets(
        self, vector: Tuple[int, ...], total_width: int
    ) -> Dict[int, List[int]]:
        """:meth:`unstarted_buckets` without the memo: one pass over the cores."""
        n = len(self.names)
        max_width = self.max_width
        buckets: Dict[int, List[int]] = {width: [] for width in set(vector)}
        if max_width is not None and (not n or 1 <= min(vector) <= max(vector) <= max_width):
            for staircase, width, rank in zip(self.times, vector, self.desc_rank):
                buckets[width].append(rank - staircase[width - 1] * n)
        else:
            # Not a vector this plan made: time_at validates and clamps.
            for rect, width, rank in zip(self.rectangles, vector, self.desc_rank):
                buckets[width].append(rank - rect.time_at(width) * n)
        wide = [width for width in buckets if width > total_width]
        if wide:
            capped = buckets.setdefault(total_width, [])
            for width in wide:
                capped.extend(buckets.pop(width))
        for bucket in buckets.values():
            heapq.heapify(bucket)
        return buckets


class RectangleSets(Dict[str, RectangleSet]):
    """The rectangle sets of one SOC by core name, with a slot for its plan.

    A plain ``dict`` in every other respect.  ``plan`` is filled by
    :func:`soc_plan` on first use; the sets are not meant to be changed
    after that.
    """

    __slots__ = ("plan",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.plan: Optional[SocPlan] = None


def soc_plan(soc: Soc, rectangle_sets: Mapping[str, RectangleSet]) -> SocPlan:
    """The :class:`SocPlan` of ``soc`` over ``rectangle_sets``.

    Kept on :class:`RectangleSets` and rebuilt only when a different,
    unequal SOC (say, the same cores in another order) asks for it.  Any
    other mapping gets a plan built for this call alone.
    """
    if not isinstance(rectangle_sets, RectangleSets):
        return SocPlan(soc, rectangle_sets)
    plan = rectangle_sets.plan
    if plan is None or not (plan.soc is soc or plan.soc == soc):
        plan = rectangle_sets.plan = SocPlan(soc, rectangle_sets)
    return plan


def build_rectangle_sets(
    soc: Soc, max_width: int = DEFAULT_MAX_WIDTH
) -> RectangleSets:
    """Build the collection ``R`` of Pareto-optimal rectangle sets for an SOC."""
    return RectangleSets(
        (core.name, RectangleSet(core, max_width=max_width)) for core in soc.cores
    )


def resolve_rectangle_sets(
    soc: Soc,
    max_width: int,
    rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
) -> Dict[str, RectangleSet]:
    """Return ``rectangle_sets`` if supplied (and consistent), else build them.

    The shared "accept a caller's pre-built Pareto sets" entry used by the
    scheduler, the baselines and the lower bounds: supplied sets must have
    been built with the same ``max_width`` the caller would use, which is
    checked here so a solver cache bug fails loudly instead of silently
    changing results.
    """
    if rectangle_sets is None:
        return build_rectangle_sets(soc, max_width=max_width)
    for name, rect in rectangle_sets.items():
        if rect.max_width != max_width:
            raise ValueError(
                f"rectangle set for core {name!r} was built with "
                f"max_width={rect.max_width}, caller needs {max_width}"
            )
    return rectangle_sets
