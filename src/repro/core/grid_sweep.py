"""Deduplicated, pruned, parallel best-over-grid sweep (the ``best`` solver core).

The paper's headline numbers are "best over a (``percent``, ``delta``)
grid" results, so the real unit of work is not one scheduler run but a
whole grid of them.  :func:`run_grid_sweep` turns that grid into a batched
subsystem with four cooperating optimisations, all bit-identical to the
straightforward triple loop (kept as
:func:`run_best_schedule_reference` and pinned by randomized property
tests in ``tests/test_grid_sweep.py``):

* **Grid deduplication.**  A scheduler run is fully determined by the
  per-core preferred-width vector (a pure function of ``percent``/``delta``
  via the shared :class:`~repro.wrapper.curve.WrapperCurve` staircases) and
  the insertion slack; grid points inducing identical ``(vector, slack)``
  signatures -- common at narrow TAMs, where many ``percent`` values snap
  to the same Pareto widths -- collapse into one run.  When idle insertion
  is disabled the slack drops out of the signature too.  The vectors and
  the run-ordering estimates come from the SOC's
  :class:`~repro.core.rectangles.SocPlan`, which lives on the rectangle
  sets: each ``(percent, delta, width cap)`` vector is computed once per
  plan, not once per sweep, and every run's scheduler set-up reads the
  plan's per-core arrays instead of rebuilding them.
* **Incumbent pruning.**  Every run after the first is bounded by the best
  makespan found so far (``makespan_limit``); the scheduler abandons the
  run as soon as its event clock moves *strictly* past the bound, which
  can never eliminate a winner (an abandoned run is strictly worse than
  the incumbent, and ties lose to the earlier grid point anyway).  The
  paper's area bound, applied to the rest of the run, usually proves that
  within a few events of ``t = 0``: once ``W * t`` plus the wire-cycles
  the unfinished tests still need exceeds ``W`` times the bound, the run
  ends.
* **Lower-bound early exit.**  Once a candidate meets the Table 1 lower
  bound (max of area and bottleneck bounds) no later grid point can beat
  it, so the sweep stops.
* **Parallel execution.**  Surviving runs fan out as individual tasks on
  the *shared flat executor* (:mod:`repro.engine.executor`) -- the same
  persistent pool the sweep engine dispatches to, so a ``best`` solve and
  an engine sweep never nest pools.  Tasks stream through
  ``imap_unordered`` carrying the incumbent makespan known at dispatch
  time (monotone-tightening only).  Pool-less sandboxes degrade to the
  serial path *observably* (a RuntimeWarning plus a ``degraded_to_serial``
  marker in the outcome metadata); results are bit-identical for every
  worker count.

:class:`GridSweepState` is the one home of the winner rule: it does the
set-up (dedup, lower bound, estimate order), holds the incumbent, picks
the minimal ``(makespan, grid index)`` and decides which runs the lower
bound makes skippable.  The serial sweep, every executor dispatch and
every executor recovery rung (quarantine, serial drain) drive that same
state, so the serial reference *is* the in-process rung.

The sweep also reports *which* grid point won (:class:`GridSweepOutcome`),
which the ``best`` solver surfaces in its result metadata.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # circular at runtime: repro.engine imports this module
    from repro.engine.faults import RecoveryEvent

from repro.core.lower_bounds import lower_bound
from repro.core.rectangles import RectangleSet, resolve_rectangle_sets, soc_plan
from repro.core.scheduler import (
    IncumbentAbort,
    MakespanLimitExceeded,
    SchedulerConfig,
    _Scheduler,
    run_paper_scheduler,
)
from repro.schedule.schedule import TestSchedule
from repro.soc.constraints import ConstraintSet
from repro.soc.soc import Soc

#: The default heuristic grid (kept in one place; the ``best`` solver
#: re-exports these).  It is wider than the paper's, which tabulates the
#: best over integer ``q`` 1..10 and ``delta`` 0..4 with the slack fixed at
#: 3: its ``q`` reaches 75 and its slack takes 0, 3 and 6, and its ``delta``
#: skips the odd values.
DEFAULT_PERCENTS: Tuple[float, ...] = (1, 5, 10, 25, 40, 60, 75)
DEFAULT_DELTAS: Tuple[int, ...] = (0, 2, 4)
DEFAULT_SLACKS: Tuple[int, ...] = (0, 3, 6)

@dataclass(frozen=True)
class GridPoint:
    """One (``percent``, ``delta``, ``slack``) heuristic-parameter choice."""

    percent: float
    delta: int
    slack: int


@dataclass(frozen=True)
class GridRun:
    """One deduplicated scheduler run: a signature and its representative.

    ``index`` is the enumeration index (percent outer, delta middle, slack
    inner) of the *first* grid point with this signature; it doubles as the
    deterministic tie-break key, reproducing the serial loop's
    "first strict improvement wins" behaviour.
    """

    index: int
    point: GridPoint
    preferred_widths: Tuple[int, ...]
    duplicates: int = 1


@dataclass(frozen=True)
class GridSweepOutcome:
    """The result of one best-over-grid sweep.

    All comparable fields are deterministic functions of the inputs --
    identical for every worker count -- so the outcome is safe to
    fingerprint.  ``recovery_events`` records the recovery-ladder steps
    (``resurrected``/``quarantined``/``serial``) the flat executor took to
    finish the sweep (environment-dependent, so excluded from equality);
    a clean run has none, keeping serial-reference comparisons exact.
    ``degraded_to_serial`` is the derived compatibility flag: ``True``
    whenever any rung of the ladder was the serial path.
    """

    schedule: TestSchedule
    winner: GridPoint
    makespan: int
    grid_points: int
    unique_runs: int
    lower_bound: int
    early_exit: bool
    recovery_events: Tuple["RecoveryEvent", ...] = field(default=(), compare=False)

    @property
    def degraded_to_serial(self) -> bool:
        """Derived compatibility flag: did any work run on the serial rung?"""
        # Stage names are stable string constants (see repro.engine.faults,
        # not importable here at runtime without a cycle).
        return any(event.stage == "serial" for event in self.recovery_events)

    def metadata(self) -> Dict[str, Any]:
        """Flat, JSON/CSV-friendly form for ``ScheduleResult.metadata``."""
        metadata = {
            "grid_points": self.grid_points,
            "unique_runs": self.unique_runs,
            "winner_percent": self.winner.percent,
            "winner_delta": self.winner.delta,
            "winner_slack": self.winner.slack,
            "lower_bound": self.lower_bound,
            "early_exit": self.early_exit,
        }
        if self.recovery_events:
            metadata["recovery_events"] = ">".join(
                event.encode() for event in self.recovery_events
            )
        if self.degraded_to_serial:
            metadata["degraded_to_serial"] = True
        return metadata


def enumerate_grid_points(
    percents: Sequence[float],
    deltas: Sequence[int],
    slacks: Sequence[int],
) -> List[GridPoint]:
    """The full grid in reference order (percent outer, slack inner)."""
    return [
        GridPoint(percent=percent, delta=delta, slack=slack)
        for percent in percents
        for delta in deltas
        for slack in slacks
    ]


def dedupe_grid(
    soc: Soc,
    total_width: int,
    config: SchedulerConfig,
    rectangle_sets: Dict[str, RectangleSet],
    percents: Sequence[float],
    deltas: Sequence[int],
    slacks: Sequence[int],
) -> List[GridRun]:
    """Collapse the grid to the runs with distinct scheduler inputs.

    Two grid points are equivalent iff they induce the same per-core
    preferred-width vector and the same insertion slack (slack is ignored
    when idle insertion is disabled, since it is then never read).  The
    representative of each signature is its first grid point in reference
    order; runs are returned in representative order.
    """
    width_cap = min(config.max_core_width, total_width)
    plan = soc_plan(soc, rectangle_sets)
    runs: Dict[Tuple[Any, ...], List[Any]] = {}
    for index, point in enumerate(enumerate_grid_points(percents, deltas, slacks)):
        vector = plan.preferred_vector(point.percent, point.delta, width_cap)
        signature: Tuple[Any, ...] = (
            (vector, point.slack) if config.enable_idle_insertion else (vector,)
        )
        entry = runs.get(signature)
        if entry is None:
            runs[signature] = [index, point, vector, 1]
        else:
            entry[3] += 1
    return [
        GridRun(index=index, point=point, preferred_widths=vector, duplicates=count)
        for index, point, vector, count in sorted(runs.values())
    ]


# ----------------------------------------------------------------------
# Pool context and run ordering (shared with the flat executor)
# ----------------------------------------------------------------------
def preferred_pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap start-up, inherits warm caches) when available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def order_runs_by_estimate(
    soc: Soc,
    rectangle_sets: Dict[str, RectangleSet],
    total_width: int,
    runs: Sequence[GridRun],
) -> List[GridRun]:
    """Deduplicated runs, most promising first.

    The estimate (area/bottleneck lower bound at the run's preferred
    widths) is a pure function of the inputs, and the strict pruning rule
    makes the final winner independent of evaluation order, so evaluating
    promising runs first is purely a wall-clock lever: the incumbent bound
    tightens early and prunes the rest harder.  Both the serial sweep and
    the flat executor's task decomposition use this order.
    """
    plan = soc_plan(soc, rectangle_sets)
    return sorted(
        runs, key=lambda run: (plan.estimate(run.preferred_widths, total_width), run.index)
    )


def _execute_run(
    soc: Soc,
    total_width: int,
    constraints: ConstraintSet,
    config: SchedulerConfig,
    rectangle_sets: Dict[str, RectangleSet],
    point: GridPoint,
    vector: Sequence[int],
    limit: Optional[int],
    limit_probe: Optional[Callable[[], int]] = None,
    probe_interval: int = 0,
) -> Optional[TestSchedule]:
    """One bounded scheduler run; ``None`` when the incumbent prunes it.

    Drives the scheduler directly (the sweep already resolved the
    rectangle sets and validated the constraints once for the whole grid,
    so the per-run front-door work of :func:`run_paper_scheduler` would be
    pure overhead repeated dozens of times).  ``limit_probe`` /
    ``probe_interval`` arm the mid-run incumbent checkpoint; a resulting
    :class:`IncumbentAbort` propagates (the executor counts those), while
    a dispatch-time prune still returns ``None``.
    """
    try:
        return _Scheduler(
            soc,
            total_width,
            constraints,
            replace(
                config,
                percent=point.percent,
                delta=point.delta,
                insertion_slack=point.slack,
            ),
            rectangle_sets,
            preferred_widths=vector,
            makespan_limit=limit,
            limit_probe=limit_probe,
            probe_interval=probe_interval,
        ).run()
    except IncumbentAbort:
        raise
    except MakespanLimitExceeded:
        return None


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
class GridSweepState:
    """The one best-over-grid state: set-up, incumbent and winner rule.

    Built once per sweep -- constraints validated, grid deduplicated,
    Table 1 lower bound computed, runs put in estimate order -- and then
    fed run replies in *any* order.  The winner is the minimal
    ``(makespan, run index)``, exactly the serial loop's "first strict
    improvement wins", so the outcome is independent of completion order.
    The serial sweep drains :meth:`pending` through :meth:`execute`; the
    flat executor streams the same runs to workers and :meth:`absorb`\\ s
    their replies, and its quarantine and serial-drain rungs call
    :meth:`execute` -- one rule for every execution path.
    """

    __slots__ = (
        "soc",
        "width",
        "constraints",
        "config",
        "sets",
        "runs",
        "by_index",
        "grid_points",
        "bound",
        "best",
        "winner_schedule",
        "acked",
        "_resolved",
    )

    def __init__(
        self,
        soc: Soc,
        width: int,
        constraints: Optional[ConstraintSet],
        config: SchedulerConfig,
        sets: Dict[str, RectangleSet],
        percents: Sequence[float],
        deltas: Sequence[int],
        slacks: Sequence[int],
    ) -> None:
        self._resolved = constraints or ConstraintSet.unconstrained()
        self._resolved.validate_for(soc)
        # Module globals on purpose: the benchmark's tracer wraps them.
        runs = dedupe_grid(soc, width, config, sets, percents, deltas, slacks)
        if not runs:
            raise ValueError("the heuristic grid is empty; nothing to sweep")
        self.soc = soc
        self.width = width
        self.constraints = constraints  # as given: travels in grid tasks
        self.config = config
        self.sets = sets
        self.bound = lower_bound(soc, width, config.max_core_width, rectangle_sets=sets)
        self.runs = tuple(order_runs_by_estimate(soc, sets, width, runs))
        self.by_index = {run.index: run for run in self.runs}
        self.grid_points = len(percents) * len(deltas) * len(slacks)
        self.best: Optional[Tuple[int, int]] = None  # (makespan, run index)
        self.winner_schedule: Optional[TestSchedule] = None
        self.acked: Set[int] = set()  # run indexes with an absorbed reply

    def limit(self) -> Optional[int]:
        """The incumbent makespan that bounds the next run (``None`` at first)."""
        return self.best[0] if self.best is not None else None

    def skippable(self, run: GridRun) -> bool:
        """Whether ``run`` can no longer change the winner.

        Once the incumbent meets the Table 1 lower bound, only an earlier
        grid point could still displace it (by tying the makespan with a
        smaller index); everything else is settled.
        """
        return self.best is not None and self.best[0] <= self.bound and run.index > self.best[1]

    def pending(self) -> Iterator[GridRun]:
        """Unacknowledged, unskippable runs in estimate order.

        Lazy: each run is checked when it is reached, so runs absorbed
        while the caller iterates tighten the skip decision for the rest.
        """
        for run in self.runs:
            if run.index not in self.acked and not self.skippable(run):
                yield run

    @property
    def settled(self) -> bool:
        """Every run is acknowledged or provably skippable."""
        return next(self.pending(), None) is None

    def absorb(
        self, run_index: int, makespan: Optional[int], schedule: Optional[TestSchedule]
    ) -> None:
        """Acknowledge one run's reply.

        ``makespan`` is ``None`` when the incumbent pruned the run;
        ``schedule`` is ``None`` when only the makespan came back (a run
        that did not strictly beat the limit it was dispatched with).
        """
        self.acked.add(run_index)
        if makespan is None:
            return
        key = (makespan, run_index)
        if self.best is None or key < self.best:
            self.best = key
            self.winner_schedule = schedule

    def execute(self, run: GridRun) -> None:
        """Run ``run`` in process, bounded by the current incumbent, and absorb it."""
        schedule = self._run(run, self.limit())
        self.absorb(run.index, None if schedule is None else schedule.makespan, schedule)

    def _run(self, run: GridRun, limit: Optional[int]) -> Optional[TestSchedule]:
        return _execute_run(
            self.soc,
            self.width,
            self._resolved,
            self.config,
            self.sets,
            run.point,
            run.preferred_widths,
            limit,
        )

    def outcome(self, events: Tuple["RecoveryEvent", ...] = ()) -> GridSweepOutcome:
        """The sweep's result, with ``events`` as its recovery ladder.

        The first run is limit-free and always completes, so there is a
        winner once every run is settled.  When the winner's schedule
        never came back (it tied the incumbent and won only on the index
        tie-break), one deterministic limit-free rerun recomputes it.
        """
        assert self.best is not None, "grid sweep produced no completed run"
        makespan, index = self.best
        run = self.by_index[index]
        if self.winner_schedule is None:
            self.winner_schedule = self._run(run, None)
            assert self.winner_schedule is not None
            assert self.winner_schedule.makespan == makespan
        return GridSweepOutcome(
            schedule=self.winner_schedule,
            winner=run.point,
            makespan=makespan,
            grid_points=self.grid_points,
            unique_runs=len(self.runs),
            lower_bound=self.bound,
            early_exit=makespan <= self.bound,
            recovery_events=events,
        )


def run_grid_sweep(
    soc: Soc,
    total_width: int,
    constraints: Optional[ConstraintSet] = None,
    percents: Sequence[float] = DEFAULT_PERCENTS,
    deltas: Sequence[int] = DEFAULT_DELTAS,
    slacks: Sequence[int] = DEFAULT_SLACKS,
    config: Optional[SchedulerConfig] = None,
    rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
    workers: int = 0,
) -> GridSweepOutcome:
    """Best paper-scheduler run over the heuristic grid, with provenance.

    The implementation behind the ``"best"`` solver of the registry.  The
    paper tabulates the best result over all integer ``1 <= q <= 10`` and
    ``0 <= delta <= 4`` (with the idle-insertion slack fixed at 3); this
    sweep reproduces that protocol over a configurable (``percents``,
    ``deltas``, ``slacks``) grid.  The default grid is wider than the
    paper's: ``q`` reaches 75 and the slack also takes 0 and 6 (see
    ``DEFAULT_PERCENTS``), which finds shorter schedules at narrow TAMs.

    ``workers > 1`` fans the deduplicated runs out as individual tasks on
    the process-wide flat executor (:mod:`repro.engine.executor`), sharing
    its persistent worker pool with the sweep engine.  When no pool can be
    created the sweep degrades -- with a :class:`RuntimeWarning` and a
    ``degraded_to_serial`` outcome marker -- to the serial loop.  The
    returned outcome -- schedule, winning grid point and sweep statistics
    -- is bit-identical for every worker count.
    """
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    base = config or SchedulerConfig()
    sets = resolve_rectangle_sets(soc, base.max_core_width, rectangle_sets)
    state = GridSweepState(soc, total_width, constraints, base, sets, percents, deltas, slacks)
    events: Tuple["RecoveryEvent", ...] = ()
    if workers > 1:
        # Lazy import: repro.engine imports this module at load time.
        from repro.engine.executor import get_default_executor

        # Pool failures are recovered inside the executor (resurrection,
        # quarantine or serial drain), which leaves nothing pending; when it
        # declines to parallelise (too few runs) every run drains below.
        events = get_default_executor().run_grid_runs(state, workers)
    for run in state.pending():
        state.execute(run)
    return state.outcome(events)


def run_best_schedule_reference(
    soc: Soc,
    total_width: int,
    constraints: Optional[ConstraintSet] = None,
    percents: Sequence[float] = DEFAULT_PERCENTS,
    deltas: Sequence[int] = DEFAULT_DELTAS,
    slacks: Sequence[int] = DEFAULT_SLACKS,
    config: Optional[SchedulerConfig] = None,
    rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
) -> Tuple[TestSchedule, GridPoint]:
    """The straightforward serial triple loop (no dedup, no pruning).

    The executable reference for :func:`run_grid_sweep`: runs every grid
    point to completion and keeps the first strict improvement.  Used by
    the property tests and the perf harness's baseline measurement.
    """
    base = config or SchedulerConfig()
    sets = resolve_rectangle_sets(soc, base.max_core_width, rectangle_sets)
    best: Optional[Tuple[TestSchedule, GridPoint]] = None
    for point in enumerate_grid_points(percents, deltas, slacks):
        candidate = run_paper_scheduler(
            soc,
            total_width,
            constraints=constraints,
            config=replace(
                base,
                percent=point.percent,
                delta=point.delta,
                insertion_slack=point.slack,
            ),
            rectangle_sets=sets,
        )
        if best is None or candidate.makespan < best[0].makespan:
            best = (candidate, point)
    assert best is not None
    return best
