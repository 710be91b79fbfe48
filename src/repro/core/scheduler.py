"""``TAM_schedule_optimizer``: integrated wrapper/TAM co-optimization and
constraint-driven, selectively preemptive test scheduling (paper Figures 4-8).

The scheduler is an event-driven greedy rectangle packer:

* **Preferred widths** (subroutine ``Initialize``, Figure 5): every core gets
  a preferred TAM width -- the smallest width whose testing time is within
  ``percent`` % of its time at the maximum allowable width, bumped to the
  highest Pareto width when the gap is at most ``delta`` wires.
* **Priority-driven assignment** (Figure 4): whenever TAM wires are free the
  scheduler repeatedly picks one core and starts (or resumes) its test:

  1. paused cores that have exhausted their preemption budget are resumed
     first (paper Priority 1);
  2. paused cores resume at their fixed assigned width and not-yet-started
     cores start at their preferred width, in order of decreasing remaining
     testing time (paper Priorities 2 and 3 -- see note below);
  3. if nothing fits, a not-yet-started core whose preferred width is within
     ``insertion_slack`` wires of the free width is squeezed into the idle
     time at the free width (Figure 4 lines 13-14);
  4. remaining free wires are given to a core that began at the current
     instant, raising its width to the highest Pareto width that fits
     (Figure 4 lines 15-16).

* **Events** (subroutine ``Update``, Figure 8): time advances to the earliest
  completion among running tests.  Completed tests free their wires;
  running tests that may still be preempted are paused and re-compete for
  wires, while non-preemptable (or budget-exhausted) tests keep their wires.
  A pause that is followed by a seamless resume costs nothing; a pause that
  leaves a gap counts as a preemption and adds ``s_in + s_out`` cycles to the
  test (Figure 6 line 5).

**Interpretation note.**  The paper's pseudocode resumes every previously
running test before admitting new tests (Priority 2 strictly ahead of
Priority 3), which -- because a set of tests that ran together can always be
resumed together -- would never actually produce a preemption.  To make
*selective preemption* meaningful we follow the paper's stated intent
("tests may be preempted and resumed ... the system integrator designates a
group of tests as preemptable") and let paused preemptable tests compete
with unstarted tests on remaining testing time; with preemption disabled
(``max_preemptions == 0``, the default) running tests are never paused and
the scheduler is exactly the paper's non-preemptive variant.  Setting
``strict_priority_resume=True`` in :class:`SchedulerConfig` restores the
literal pseudocode ordering.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import numbers
import operator
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # import cycle: core/ must not pull in engine/ at runtime
    from repro.engine.faults import CancelToken

from repro.core.rectangles import (
    RectangleSet,
    RectangleSets,
    resolve_rectangle_sets,
    soc_plan,
)
from repro.schedule.schedule import ScheduleSegment, TestSchedule
from repro.soc.constraints import ConstraintSet
from repro.soc.soc import Soc
from repro.wrapper.pareto import DEFAULT_MAX_WIDTH


class SchedulerError(RuntimeError):
    """Raised when an SOC cannot be scheduled under the given constraints."""


class MakespanLimitExceeded(SchedulerError):
    """Raised when a bounded run proves its makespan exceeds the limit.

    The grid sweep (:mod:`repro.core.grid_sweep`) passes the best makespan
    found so far as ``makespan_limit``; once the event clock moves strictly
    past it, this run can no longer win (its makespan is at least the
    current time while tests remain incomplete) and is abandoned early.
    The paper's area bound ends it sooner: after each assignment phase the
    run knows ``W * t`` plus a lower bound on the wire-cycles its tests
    still need, and once that exceeds ``W * makespan_limit`` the makespan
    must too.
    """


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunable parameters of ``TAM_schedule_optimizer``.

    Parameters
    ----------
    percent:
        The ``q`` parameter: a core's preferred width is the smallest width
        whose testing time is within ``percent`` % of its testing time at the
        maximum allowable width.  The paper reports the best over integer
        ``q`` in 1..10; the default grid of :func:`repro.core.grid_sweep.run_grid_sweep`
        is wider (``DEFAULT_PERCENTS`` reaches 75).
    delta:
        Bump the preferred width to the core's highest Pareto-optimal width if
        the difference is at most ``delta`` wires (the bottleneck-core
        heuristic).  The paper sweeps 0..4; the default grid samples 0, 2
        and 4 (``DEFAULT_DELTAS``).
    max_core_width:
        Maximum TAM width ever assigned to a single core (``W_max``, 64 in the
        paper).
    insertion_slack:
        A not-yet-started core may be squeezed into idle wires when its
        preferred width is within this many wires of the available width
        (the paper found 3 to work best).
    enable_idle_insertion:
        Enable the idle-time rectangle-insertion heuristic.
    enable_width_increase:
        Enable the "give leftover wires to a core that just started"
        heuristic.
    strict_priority_resume:
        Resume paused tests strictly before starting new ones (the literal
        pseudocode ordering).  See the module docstring.
    use_candidate_heaps:
        Select candidates from maintained priority queues (lazy-invalidated
        heaps over the paused pools, and one heap per requested width over
        the unstarted pool) instead of re-scanning the pools on every
        query.  Results are bit-identical either way; the flag exists so
        the straightforward scan stays reachable as the executable
        reference for the property tests.
    """

    percent: float = 5.0
    delta: int = 0
    max_core_width: int = DEFAULT_MAX_WIDTH
    insertion_slack: int = 3
    enable_idle_insertion: bool = True
    enable_width_increase: bool = True
    strict_priority_resume: bool = False
    use_candidate_heaps: bool = True

    def __post_init__(self) -> None:
        # ``operator.index`` takes ints and int-likes and rejects floats and
        # strings; a bool is refused too, or ``True`` would mean one wire.
        for name in ("delta", "max_core_width", "insertion_slack"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        percent = self.percent
        if (
            isinstance(percent, bool)
            or not isinstance(percent, numbers.Real)
            or not math.isfinite(percent)
        ):
            raise ValueError(f"percent must be a finite number, got {percent!r}")
        if percent < 0:
            raise ValueError("percent must be non-negative")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.max_core_width <= 0:
            raise ValueError("max_core_width must be positive")
        if self.insertion_slack < 0:
            raise ValueError("insertion_slack must be non-negative")

    # ------------------------------------------------------------------
    # Serialization (the payload of a :class:`repro.solvers.ScheduleRequest`)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Flat, JSON-serializable dict of all configuration fields."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SchedulerConfig":
        """Rebuild a config from :meth:`to_dict` output (unknown keys raise)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown SchedulerConfig fields: {unknown}")
        return cls(**dict(data))


class _CoreState:
    """Mutable bookkeeping for one core (the data structure of Figure 3).

    A plain ``__slots__`` class (not a dataclass): its attributes dominate
    the hot paths, so construction and access speed matter.  A run builds
    one only for a core it starts or must check for conflicts (see
    :class:`_Scheduler`); a core left in a bucket heap has none.

    ``times`` and ``pareto`` are the core's time staircase and ascending
    Pareto widths, shared with the :class:`~repro.core.rectangles.SocPlan`,
    so snapping a width and reading its time are a ``bisect`` and an
    index.  ``request`` is ``min(preferred_width, W)``, the width of the
    bucket an unstarted core waits in.  ``segments`` is a flat
    ``[start, end, start, end, ...]`` int list: all of a core's segments
    share one width, its final ``assigned_width`` (a width is fixed once a
    test is packed, and a width increase only touches a fresh start that
    has no segment yet), so :meth:`_Scheduler.run` builds the validated
    :class:`~repro.schedule.schedule.ScheduleSegment` objects only for a
    run that completes.
    """

    __slots__ = (
        "name",
        "rectangles",
        "times",
        "pareto",
        "preferred_width",
        "request",
        "max_preemptions",
        "power",
        "bist_resource",
        "rank",
        "min_area",
        "remaining",
        "assigned_width",
        "begun",
        "running",
        "complete",
        "preemptions",
        "first_begin",
        "end_time",
        "run_start",
        "segments",
    )

    def __init__(
        self,
        name: str,
        rectangles: RectangleSet,
        times: Tuple[int, ...],
        pareto: Tuple[int, ...],
        preferred_width: int,
        request: int,
        max_preemptions: int,
        power: float,
        bist_resource: Optional[str],
        rank: int,
        min_area: int,
    ) -> None:
        self.name = name
        self.rectangles = rectangles
        self.times = times
        self.pareto = pareto
        self.preferred_width = preferred_width
        self.request = request
        self.max_preemptions = max_preemptions
        self.power = power
        self.bist_resource = bist_resource
        self.rank = rank
        self.min_area = min_area
        self.remaining = 0
        self.assigned_width: Optional[int] = None
        self.begun = False
        self.running = False
        self.complete = False
        self.preemptions = 0
        self.first_begin: Optional[int] = None
        self.end_time: Optional[int] = None
        self.run_start: Optional[int] = None
        self.segments: List[int] = []

    def candidate_width(self) -> int:
        """Width this core would occupy if scheduled next."""
        if self.begun:
            assert self.assigned_width is not None
            return self.assigned_width
        return self.request

    def candidate_remaining(self) -> int:
        """Remaining testing time used to rank this core."""
        if self.begun:
            return self.remaining
        return self.rectangles.time_at(self.preferred_width)


class _Scheduler:
    """One scheduling run; see :func:`run_paper_scheduler` for the public entry point.

    The event loop keeps its hot-path state *incremental* instead of
    re-deriving it from the per-core states on every query:

    * the running / paused pools (and, for the scan reference, the
      unstarted pool) are maintained (insertion-ordered) dicts, updated in
      :meth:`_start` and :meth:`_pause`;
    * the TAM wires in use, the total running power and the per-BIST-engine
      occupancy counts are running totals, so :meth:`_conflicts` and the
      free-wire count are O(1) (plus a pairwise walk only when explicit
      concurrency constraints exist);
    * unsatisfied precedence is a per-core set of pending predecessors,
      emptied as predecessors complete;
    * :meth:`_advance` reads the next event time from a min-heap of
      completion times (entries are invalidated lazily: a popped entry is
      ignored unless it still matches its core's current finish time);
    * unstarted cores are bucketed by the width they request,
      ``min(preferred_width, total_width)``, one heap per width ordered by
      (remaining time, name), and a selection walks only the buckets whose
      width fits the free wires plus the insertion slack.  A core too wide
      for the free wires is never popped, so a run does O(1) heap work per
      start instead of popping past (and pushing back) every wider core
      with more remaining time.  Paused cores keep one heap per priority.

    Set-up reads the SOC's :class:`~repro.core.rectangles.SocPlan`, built
    once per rectangle-set collection, and builds only what every run
    needs: the preemption limits, and the bucket heaps from
    :meth:`~repro.core.rectangles.SocPlan.unstarted_buckets`, whose entries
    are plain int keys (``key // n`` is ``-T(preferred)``, ``key % n`` the
    core's rank).  The preferred widths are either the caller's vector in
    ``soc.cores`` order or the plan's cached vector for this config.  A
    core's :class:`_CoreState` lives in ``_states`` (core order) and is
    built from the plan's arrays only when the core is started or checked
    for conflicts at the top of a bucket -- so a run that the area floor
    stops after a few dozen starts builds a few dozen states, not one per
    core.  The scan reference (``use_candidate_heaps=False``) builds every
    state up front.

    Each event is kept cheap too.  A start snaps its width with one
    ``bisect`` over the plan's Pareto-width tuple and reads its time from
    the plan's staircase; a pause only extends the core's flat int segment
    list.  :meth:`run` turns those bounds into validated
    :class:`~repro.schedule.schedule.ScheduleSegment` objects once the run
    completes, so a pruned run builds none.

    Every run also keeps ``_area``, the paper's area bound applied to the
    rest of the run: ``W * t`` plus the wire-cycles its started tests still
    hold (width times remaining time, preemption overheads included) plus
    each unstarted core's smallest area ``min_w w * T(w)``.  Only a width
    increase can lower it, and only inside the assignment phase that
    started the test; between phases it never falls, and at completion it
    equals ``W * makespan``.  So once it passes ``W * makespan_limit`` after
    a phase, a bounded run ends -- usually within a few events of ``t = 0``
    when it cannot beat the incumbent.

    Candidate selection (``max``/``min`` with name tie-breaks) is invariant
    to pool iteration order, so schedules are bit-identical to the
    re-scanning implementation this replaces -- a property pinned by the
    golden regression tests in ``tests/test_perf_regression.py`` and the
    randomized heap-versus-scan tests in ``tests/test_grid_sweep.py``.
    """

    def __init__(
        self,
        soc: Soc,
        total_width: int,
        constraints: ConstraintSet,
        config: SchedulerConfig,
        rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
        preferred_widths: Optional[Sequence[int]] = None,
        makespan_limit: Optional[int] = None,
    ) -> None:
        if total_width <= 0:
            raise SchedulerError("total TAM width must be positive")
        self.soc = soc
        self.total_width = total_width
        self.constraints = constraints
        self.config = config
        self.current_time = 0
        self.makespan_limit = makespan_limit
        # Ambient cooperative cancellation (service layer): capture the
        # calling thread's cancel token once at construction.  sys.modules
        # is consulted instead of importing -- core/ must not pull in
        # engine/, and a solve can only run inside a cancel scope if
        # repro.engine.faults is already imported (whoever armed the token
        # imported it first).  A fired token aborts the run at the next
        # event-loop checkpoint via CancelledSolve.
        faults = sys.modules.get("repro.engine.faults")
        self._cancel_token: Optional["CancelToken"] = (
            faults.active_cancel_token() if faults is not None else None
        )
        plan = soc_plan(soc, rectangle_sets) if isinstance(rectangle_sets, RectangleSets) else None
        if plan is None or plan.max_width != config.max_core_width:
            # The plan records its sets' common max_width, so only plain
            # dicts and sets built for another width (which raise here)
            # pay for the per-set check.
            plan = soc_plan(
                soc, resolve_rectangle_sets(soc, config.max_core_width, rectangle_sets)
            )
        self._plan = plan
        if preferred_widths is None:
            preferred_widths = plan.preferred_vector(
                config.percent, config.delta, min(config.max_core_width, total_width)
            )
        self._preferred = preferred_widths
        n = len(plan.names)
        limits = [int(constraints.default_preemptions)] * n
        for name, limit in constraints.max_preemptions.items():
            index = plan.index.get(name)
            if index is not None:
                limits[index] = int(limit)
        self._limits = limits
        self._states: List[Optional[_CoreState]] = [None] * n
        # Lower bound on W * makespan (see the class docstring); kept in
        # every run, checked only in bounded ones.
        self._area = plan.min_area_total
        # Incremental pools and running totals (see class docstring).
        self._running: Dict[str, _CoreState] = {}
        self._paused: Dict[str, _CoreState] = {}
        self._incomplete = n
        self._width_in_use = 0
        self._running_power = 0.0
        self._bist_in_use: Dict[str, int] = {}
        self._completion_heap: List[Tuple[int, str, _CoreState]] = []
        self._concurrency = frozenset(constraints.concurrency)
        self._pending_preds: Dict[str, Set[str]] = {}
        self._successors: Dict[str, List[str]] = {}
        for before, after in constraints.precedence:
            if before in plan.index and after in plan.index:
                self._pending_preds.setdefault(after, set()).add(before)
                self._successors.setdefault(before, []).append(after)
        # Candidate priority queues (see _select_candidate_heaps).  Paused
        # entries are (-remaining, rank, state) where rank is the core's
        # position in *descending* name order, so the heap pops the largest
        # (remaining, name) first with pure-integer comparisons (ranks are
        # unique, the state object is never compared); unstarted entries
        # are the equivalent int keys of SocPlan.unstarted_buckets.
        # Staleness is detected lazily on pop.  Unstarted cores sit in one
        # heap per requested width min(preferred, total), so a selection
        # only looks at the widths that can fit instead of popping past
        # wide cores.
        self._use_heaps = config.use_candidate_heaps
        self._n = n
        # Config reads of the hot paths, taken once.
        self._insertion_slack = (
            config.insertion_slack if config.enable_idle_insertion else 0
        )
        self._strict = config.strict_priority_resume
        self._width_cap = min(config.max_core_width, total_width)
        self._fresh_starts: List[_CoreState] = []
        self._no_preemption = not any(limits)
        # With no constraints of any kind, _conflicts is identically False
        # and the per-candidate call can be skipped entirely.
        self._no_conflicts = (
            not self._pending_preds
            and not self._concurrency
            and constraints.power_max is None
            and not plan.any_bist
        )
        self._check_feasibility()
        if self._use_heaps:
            self._buckets = plan.unstarted_buckets(preferred_widths, total_width)
            # Non-empty bucket widths, ascending; an emptied one is dropped
            # by the start that empties it (no constraints) or by the next
            # walk that finds it.
            self._bucket_widths = sorted(self._buckets)
            self._paused_heap: List[Tuple[int, int, _CoreState]] = []
            self._exhausted_heap: List[Tuple[int, int, _CoreState]] = []
        else:
            self._unstarted: Dict[str, _CoreState] = {
                name: self._state(index) for index, name in enumerate(plan.names)
            }
        # Candidate selection: the maintained-heap path (the default) or
        # the straightforward pool re-scan, bit-identical (pinned by the
        # randomized tests in tests/test_grid_sweep.py).  Either returns
        # the next core to schedule and its width, or None if nothing fits.
        # The plain function, not a bound method: a bound method stored on
        # the instance is a reference cycle that keeps every finished run
        # (its states, rectangle sets and curves) alive until a full GC.
        self._select = (
            _Scheduler._select_candidate_heaps
            if self._use_heaps
            else _Scheduler._select_candidate_scan
        )

    def _state(self, index: int) -> _CoreState:
        """The state of core ``index`` (in core order), built on first use."""
        state = self._states[index]
        if state is None:
            plan = self._plan
            state = self._states[index] = _CoreState(
                plan.names[index],
                plan.rectangles[index],
                plan.times[index],
                plan.pareto_widths[index],
                self._preferred[index],
                min(self._preferred[index], self.total_width),
                self._limits[index],
                plan.powers[index],
                plan.bist_resources[index],
                plan.desc_rank[index],
                plan.min_areas[index],
            )
        return state

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def _check_feasibility(self) -> None:
        power_max = self.constraints.power_max
        if power_max is None:
            return
        plan = self._plan
        for name, power in zip(plan.names, plan.powers):
            if power > power_max:
                raise SchedulerError(
                    f"core {name!r} dissipates {power} during test, "
                    f"which exceeds the SOC power budget {power_max}"
                )

    # ------------------------------------------------------------------
    # Conflict checks (paper Figure 7)
    # ------------------------------------------------------------------
    def _conflicts(self, state: _CoreState) -> bool:
        """True if scheduling ``state`` right now would violate a constraint."""
        # Precedence: every predecessor must be complete before the first
        # start.  Pending-predecessor sets are drained on completion, so
        # this is one dict lookup.
        if not state.begun and self._pending_preds.get(state.name):
            return True
        # Concurrency constraints against currently running tests; the
        # pairwise walk only happens when explicit constraints exist.
        if self._concurrency:
            name = state.name
            for other in self._running.values():
                if frozenset((name, other.name)) in self._concurrency:
                    return True
        # BIST-engine sharing: maintained occupancy count per engine.
        if (
            state.bist_resource is not None
            and self._bist_in_use.get(state.bist_resource, 0) > 0
        ):
            return True
        # Power budget against the maintained running-power total.
        power_max = self.constraints.power_max
        if power_max is not None:
            if self._running_power + state.power > power_max + 1e-9:
                return True
        return False

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------
    def _start(self, state: _CoreState, width: int) -> None:
        """Start or resume a core test at the given width (paper ``Assign``)."""
        now = self.current_time
        if state.begun:
            assert state.assigned_width is not None
            width = state.assigned_width  # widths are fixed once packed
            if state.end_time is not None and state.end_time < now:
                # True preemption: resuming after a gap costs an extra
                # scan-out + scan-in (Figure 6, line 5).
                state.preemptions += 1
                overhead = state.rectangles.preemption_overhead(width)
                state.remaining += overhead
                self._area += overhead * width
            del self._paused[state.name]
        else:
            # Snap down to a Pareto width (width 1 always is one).
            pareto = state.pareto
            width = pareto[bisect_right(pareto, width) - 1]
            remaining = state.times[width - 1]
            state.assigned_width = width
            state.remaining = remaining
            self._area += width * remaining - state.min_area
            state.begun = True
            state.first_begin = now
            if not self._use_heaps:
                del self._unstarted[state.name]
            elif self._no_conflicts:
                # Without constraints the core picked is its bucket's top
                # (see _best_unstarted): drop its key now.
                bucket = self._buckets[state.request]
                key = heapq.heappop(bucket)
                assert key % self._n == state.rank
                if not bucket:
                    self._bucket_widths.remove(state.request)
            self._fresh_starts.append(state)
        state.running = True
        state.run_start = now
        self._running[state.name] = state
        self._width_in_use += width
        self._running_power += state.power
        if state.bist_resource is not None:
            self._bist_in_use[state.bist_resource] = (
                self._bist_in_use.get(state.bist_resource, 0) + 1
            )
        heapq.heappush(
            self._completion_heap, (now + state.remaining, state.name, state)
        )

    def _pause(self, state: _CoreState) -> None:
        """Stop a running test at the current time and record its segment."""
        run_start = state.run_start
        assert state.running and run_start is not None
        now = self.current_time
        if now > run_start:
            self._emit_segment(state, run_start, now)
            state.remaining -= now - run_start
        state.running = False
        state.run_start = None
        state.end_time = now
        del self._running[state.name]
        assert state.assigned_width is not None
        self._width_in_use -= state.assigned_width
        self._running_power -= state.power
        if not self._running:
            # Pin the accumulator back to exactly zero at quiet points so
            # float error cannot build up across busy periods.
            self._running_power = 0.0
        if state.bist_resource is not None:
            occupancy = self._bist_in_use.get(state.bist_resource, 0) - 1
            if occupancy > 0:
                self._bist_in_use[state.bist_resource] = occupancy
            else:
                self._bist_in_use.pop(state.bist_resource, None)
        if state.remaining <= 0:
            state.remaining = 0
            state.complete = True
            self._incomplete -= 1
            for after in self._successors.get(state.name, ()):
                pending = self._pending_preds.get(after)
                if pending:
                    pending.discard(state.name)
        else:
            self._paused[state.name] = state
            if self._use_heaps:
                # A paused core's remaining time and preemption count are
                # frozen until it resumes, so its Priority-1-vs-2 category
                # is fixed for the whole pause and one entry suffices.
                entry = (-state.remaining, state.rank, state)
                if state.preemptions >= state.max_preemptions:
                    heapq.heappush(self._exhausted_heap, entry)
                else:
                    heapq.heappush(self._paused_heap, entry)

    @staticmethod
    def _emit_segment(state: _CoreState, start: int, end: int) -> None:
        """Append ``start..end`` to the core's flat segment list, extending
        the last segment when this piece resumes where it ended."""
        segments = state.segments
        if segments and segments[-1] == start:
            segments[-1] = end
        else:
            segments += (start, end)

    def _exhausted_paused(self) -> List[_CoreState]:
        return [
            state
            for state in self._paused.values()
            if state.preemptions >= state.max_preemptions
        ]

    # -- heap implementation -------------------------------------------
    def _best_unstarted(self, width_limit: int) -> Optional[int]:
        """Smallest unstarted key that requests at most ``width_limit``
        wires and conflicts with nothing running, or ``None``.

        Walks the non-empty width buckets in ascending order.  Without
        constraints :meth:`_start` pops each started core's key, so every
        top is live and the best is the smallest top.  With constraints a
        bucket's entries are popped until the first non-conflicting one, or
        until one that can no longer beat the best found so far, and pushed
        back; begun entries are dropped for good.
        """
        buckets = self._buckets
        best: Optional[int] = None
        if self._no_conflicts:
            for width in self._bucket_widths:
                if width > width_limit:
                    break
                key = buckets[width][0]
                if best is None or key < best:
                    best = key
            return best
        states = self._states
        by_rank = self._plan.by_rank
        n = len(states)
        emptied = False
        for width in self._bucket_widths:
            if width > width_limit:
                break
            heap = buckets[width]
            skipped: List[int] = []
            while heap:
                key = heap[0]
                index = by_rank[key % n]
                state = states[index]
                if state is not None and state.begun:
                    heapq.heappop(heap)
                elif best is not None and key > best:
                    break  # every later entry of this bucket is worse still
                elif not self._conflicts(self._state(index)):
                    best = key
                    break
                else:
                    skipped.append(heapq.heappop(heap))
            for key in skipped:
                heapq.heappush(heap, key)
            if not heap:
                emptied = True
        if emptied:
            self._bucket_widths = [w for w in self._bucket_widths if buckets[w]]
        return best

    def _first_eligible(
        self,
        heap: List[Tuple[int, int, _CoreState]],
        exhausted: bool,
        width_available: int,
        bound: Optional[int],
    ) -> Optional[_CoreState]:
        """Pop a paused heap to its first eligible core, or ``None``.

        An entry is live while its core is still paused with the remaining
        time it was pushed with, and still in the heap's category
        (``exhausted``: preemption budget spent); dead entries are dropped
        for good.  Live entries are skipped (and pushed back) unless the
        core's fixed width fits ``width_available`` and it conflicts with
        nothing running.  The walk stops early at an entry whose remaining
        time is below ``-bound``.
        """
        skipped: List[Tuple[int, int, _CoreState]] = []
        found: Optional[_CoreState] = None
        while heap:
            entry = heap[0]
            state = entry[2]
            if (
                not state.begun
                or state.running
                or state.complete
                or state.remaining != -entry[0]
                or (state.preemptions >= state.max_preemptions) != exhausted
            ):
                heapq.heappop(heap)
                continue
            if bound is not None and entry[0] > bound:
                break
            skipped.append(heapq.heappop(heap))
            if (state.assigned_width or 0) <= width_available and (
                self._no_conflicts or not self._conflicts(state)
            ):
                found = state
                break
        for entry in skipped:
            heapq.heappush(heap, entry)
        return found

    def _select_candidate_heaps(
        self, width_available: int
    ) -> Optional[Tuple[_CoreState, int]]:
        """Heap-backed candidate selection (same result as the scan).

        Paused pools are heaps popped until their first *eligible* entry
        (fixed width fits, conflicts with nothing running); skipped live
        entries are pushed back and stale ones (core left the pool, or its
        remaining time changed) are dropped for good.  Unstarted cores come
        from :meth:`_best_unstarted` over the widths that fit the free
        wires, or that idle insertion can squeeze into them.  The scan's
        idle-insertion fallback needs no counterpart: a core it could pick
        has ``min(preferred, total) <= available + slack`` and so was
        already considered by the bucket walk.
        """

        # Priority 1: paused tests that may not be preempted again; max by
        # (remaining, name), eligible iff their fixed width fits.
        if self._paused:
            state = self._first_eligible(
                self._exhausted_heap, True, width_available, None
            )
            if state is not None:
                return state, state.assigned_width or 1

        width_limit = width_available + self._insertion_slack
        if self._strict:
            # Literal pseudocode ordering: all paused before any unstarted.
            if self._paused:
                state = self._first_eligible(
                    self._paused_heap, False, width_available, None
                )
                if state is not None:
                    return state, state.assigned_width or 1
            best = self._best_unstarted(width_limit)
        else:
            # Merged Priorities 2/3: the globally best (remaining, begun,
            # name).  Paused (begun) wins remaining-time ties so seamless
            # resumption is preferred, so the paused heap is only cut off
            # once its remaining time drops below the unstarted winner's.
            best = self._best_unstarted(width_limit)
            if self._paused:
                state = self._first_eligible(
                    self._paused_heap,
                    False,
                    width_available,
                    None if best is None else best // self._n,
                )
                if state is not None:
                    return state, state.assigned_width or 1
        if best is None:
            return None
        state = self._state(self._plan.by_rank[best % self._n])
        request = state.request
        return state, request if request < width_available else width_available

    # -- reference (re-scanning) implementation ------------------------
    def _select_candidate_scan(
        self, width_available: int
    ) -> Optional[Tuple[_CoreState, int]]:
        """Re-scanning candidate selection (the pre-heap reference path)."""
        # Priority 1: paused tests that may not be preempted again.
        priority1 = [
            state
            for state in self._exhausted_paused()
            if (state.assigned_width or 0) <= width_available
            and not self._conflicts(state)
        ]
        if priority1:
            state = max(priority1, key=lambda s: (s.remaining, s.name))
            return state, state.assigned_width or 1

        paused = list(self._paused.values())
        unstarted = list(self._unstarted.values())

        def eligible(pool: Iterable[_CoreState]) -> List[Tuple[_CoreState, int]]:
            found = []
            for state in pool:
                width = state.candidate_width()
                if width > width_available:
                    # An unstarted core whose preferred width slightly exceeds
                    # the free wires may still be squeezed in (paper Figure 4
                    # line 13: "within 3 bits of the preferred width").
                    if (
                        state.begun
                        or not self.config.enable_idle_insertion
                        or width - width_available > self.config.insertion_slack
                    ):
                        continue
                    width = width_available
                if not self._conflicts(state):
                    found.append((state, width))
            return found

        if self.config.strict_priority_resume:
            # Literal pseudocode ordering: Priority 2 then Priority 3.
            for pool in (paused, unstarted):
                candidates = eligible(pool)
                if candidates:
                    return max(
                        candidates, key=lambda item: (item[0].candidate_remaining(), item[0].name)
                    )
        else:
            # Merged Priorities 2/3: longest remaining test first; paused tests
            # win ties so seamless resumption is preferred.
            candidates = eligible(paused) + eligible(unstarted)
            if candidates:
                return max(
                    candidates,
                    key=lambda item: (
                        item[0].candidate_remaining(),
                        item[0].begun,
                        item[0].name,
                    ),
                )

        # Idle-time rectangle insertion (Figure 4 lines 13-14).
        if self.config.enable_idle_insertion and width_available >= 1:
            squeezable = [
                state
                for state in unstarted
                if state.preferred_width <= width_available + self.config.insertion_slack
                and not self._conflicts(state)
            ]
            if squeezable:
                state = min(squeezable, key=lambda s: (s.preferred_width, s.name))
                return state, width_available
        return None

    def _try_width_increase(self, width_available: int) -> bool:
        """Give leftover wires to a core that began now (Figure 4 lines 15-16)."""
        if not self.config.enable_width_increase or width_available <= 0:
            return False
        best: Optional[_CoreState] = None
        best_gain = 0
        best_width = 0
        # Only tests that *began* at the current instant qualify, so the
        # scan covers the fresh-start list (reset on every time advance)
        # instead of the whole running pool.
        for state in self._fresh_starts:
            if state.first_begin != self.current_time or state.run_start != self.current_time:
                continue
            if state.preemptions or state.segments:
                continue  # only brand-new tests may still change width
            assert state.assigned_width is not None
            pareto = state.pareto
            widest = min(state.assigned_width + width_available, self._width_cap)
            new_width = pareto[bisect_right(pareto, widest) - 1]
            if new_width <= state.assigned_width:
                continue
            # A test that began this instant has run for zero cycles, so
            # its remaining time *is* its testing time at the current width.
            gain = state.remaining - state.times[new_width - 1]
            if gain > best_gain:
                best, best_gain, best_width = state, gain, new_width
        if best is None:
            return False
        assert best.assigned_width is not None
        self._width_in_use += best_width - best.assigned_width
        remaining = best.times[best_width - 1]
        self._area += best_width * remaining - best.assigned_width * best.remaining
        best.assigned_width = best_width
        best.remaining = remaining
        heapq.heappush(
            self._completion_heap,
            (self.current_time + best.remaining, best.name, best),
        )
        return True

    def _assignment_phase(self) -> None:
        select = self._select
        total_width = self.total_width
        while True:
            width_available = total_width - self._width_in_use
            if width_available <= 0:
                return
            candidate = select(self, width_available)
            if candidate is None:
                # Nothing fits; hand leftover wires to a test that just began.
                while self._try_width_increase(total_width - self._width_in_use):
                    pass
                return
            self._start(*candidate)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        if not self._running:
            blocked = [
                name
                for name, state in zip(self._plan.names, self._states)
                if state is None or not state.complete
            ]
            raise SchedulerError(
                "no test can be scheduled and none is running; the constraints are "
                f"unsatisfiable for cores {blocked}"
            )
        # The next event is the earliest completion among running tests,
        # read off the completion heap.  Entries are invalidated lazily: an
        # entry is stale once its core stopped running or changed its
        # finish time (width increase, preemption overhead), and every
        # running core always has one entry matching its current finish, so
        # the first live entry is the true minimum.
        heap = self._completion_heap
        while True:
            finish, _, state = heap[0]
            if (
                state.running
                and state.run_start is not None
                and state.run_start + state.remaining == finish
            ):
                break
            heapq.heappop(heap)
        next_time = finish
        assert next_time > self.current_time
        if self._cancel_token is not None:
            # Cooperative cancellation checkpoint: one Event read (plus a
            # monotonic-clock read when a deadline is armed) per event.
            self._cancel_token.raise_if_cancelled()
        if self.makespan_limit is not None and next_time > self.makespan_limit:
            # Tests remain incomplete past the limit, so the final makespan
            # is strictly worse than the incumbent: abandon the run.  The
            # strict comparison keeps a run that *ties* the limit alive,
            # which makes pruning safe in any evaluation order.
            self._abort(f"makespan exceeds {self.makespan_limit} at time {next_time}")
        # The wires left idle until the next event.
        self._area += (self.total_width - self._width_in_use) * (
            next_time - self.current_time
        )
        self.current_time = next_time
        self._fresh_starts.clear()
        if self._no_preemption:
            # No test may ever be paused mid-run, so the only state changes
            # are the completions at the event time -- read them off the
            # heap instead of scanning the whole running pool.
            while heap:
                finish, _, state = heap[0]
                if finish > next_time:
                    break
                heapq.heappop(heap)
                if (
                    state.running
                    and state.run_start is not None
                    and state.run_start + state.remaining == finish
                ):
                    self._pause(state)  # records segment and marks complete
            return
        for state in list(self._running.values()):
            finish = (state.run_start or 0) + state.remaining
            if finish <= self.current_time:
                self._pause(state)  # records segment and marks complete
            elif state.preemptions < state.max_preemptions:
                # Preemptable test: pause it so it re-competes for wires.
                self._pause(state)
            # else: non-preemptable (or exhausted) tests keep running.

    def _abort(self, message: str) -> NoReturn:
        """End a run that has proved it cannot meet ``makespan_limit``."""
        raise MakespanLimitExceeded(message)

    def run(self) -> TestSchedule:
        """Execute the scheduler and return the packed schedule."""
        safety_limit = max(10 * self._n * (max(self._limits, default=0) + 2), 1000)
        iterations = 0
        while self._incomplete:
            iterations += 1
            if iterations > safety_limit:
                raise SchedulerError(
                    "scheduler failed to converge; this indicates an internal error"
                )
            self._assignment_phase()
            limit = self.makespan_limit
            if limit is not None:
                # The area floor is checked only here, between phases: a
                # width increase can still lower a fresh start's area
                # mid-phase.
                if self._area > limit * self.total_width:
                    self._abort(
                        f"area {self._area} exceeds {limit} x {self.total_width} "
                        f"wire-cycles at time {self.current_time}"
                    )
                if self._no_preemption:
                    # Without preemption a started test runs to completion
                    # at its now-final width, so each fresh start pins a
                    # floor on the makespan; a floor beyond the incumbent
                    # ends the run immediately (often at time 0, when a bad
                    # grid point gives the bottleneck core too narrow a
                    # preferred width).
                    for state in self._fresh_starts:
                        if self.current_time + state.remaining > limit:
                            self._abort(
                                f"core {state.name!r} cannot finish before "
                                f"{self.current_time + state.remaining} > {limit}"
                            )
            if not self._incomplete:
                break
            self._advance()
        segments: List[ScheduleSegment] = []
        for state in self._states:
            if state is not None:
                name, width, bounds = state.name, state.assigned_width, state.segments
                assert width is not None
                for position in range(0, len(bounds), 2):
                    segments.append(
                        ScheduleSegment(
                            core=name,
                            start=bounds[position],
                            end=bounds[position + 1],
                            width=width,
                        )
                    )
        return TestSchedule(
            soc_name=self.soc.name,
            total_width=self.total_width,
            segments=tuple(segments),
        )


def run_paper_scheduler(
    soc: Soc,
    total_width: int,
    constraints: Optional[ConstraintSet] = None,
    config: Optional[SchedulerConfig] = None,
    rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
    *,
    preferred_widths: Optional[Mapping[str, int]] = None,
    makespan_limit: Optional[int] = None,
) -> TestSchedule:
    """Schedule all core tests of ``soc`` on a TAM of ``total_width`` wires.

    The implementation behind the ``"paper"`` solver of the registry
    (:mod:`repro.solvers`): wrapper/TAM co-optimization (via the Pareto
    rectangle sets) and constraint-driven, selectively preemptive test
    scheduling in one pass, returning a
    :class:`~repro.schedule.schedule.TestSchedule`.

    Parameters
    ----------
    soc:
        The SOC to schedule.
    total_width:
        Total SOC TAM width ``W`` (bin height).
    constraints:
        Precedence/concurrency/power/preemption constraints; ``None`` means
        unconstrained, non-preemptive scheduling (the paper's Problem 1).
    config:
        Heuristic parameters; see :class:`SchedulerConfig`.
    rectangle_sets:
        Optional pre-built Pareto rectangle sets (must have been built with
        ``max_width == config.max_core_width``).  A solver
        :class:`~repro.solvers.Session` passes its shared cache here so
        repeated solves stop recomputing wrapper designs.
    preferred_widths:
        Optional precomputed preferred widths by core name (as produced by
        ``RectangleSet.preferred_width`` at this config's percent/delta and
        width cap), read once into a vector in ``soc.cores`` order.
        Without them the run takes the SOC plan's cached vector.
    makespan_limit:
        Optional upper bound: once the event clock, or the area floor
        (see :class:`MakespanLimitExceeded`), moves strictly past it the
        run raises :class:`MakespanLimitExceeded` instead of finishing.
        The grid sweep passes its incumbent best makespan here to prune
        runs that can no longer win.
    """
    constraints = constraints or ConstraintSet.unconstrained()
    config = config or SchedulerConfig()
    constraints.validate_for(soc)
    scheduler = _Scheduler(
        soc,
        total_width,
        constraints,
        config,
        rectangle_sets,
        preferred_widths=(
            None
            if preferred_widths is None
            else tuple(preferred_widths[core.name] for core in soc.cores)
        ),
        makespan_limit=makespan_limit,
    )
    return scheduler.run()
