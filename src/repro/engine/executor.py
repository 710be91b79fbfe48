"""Flattened shared-pool executor: one persistent work queue for every layer.

Before this module existed the repository had *two* pool layers that could
not compose: the sweep engine pooled over whole :class:`ScheduleJob`\\ s, and
the ``best`` solver's grid sweep pooled over its deduplicated scheduler
runs.  A ``best`` job executing inside a sweep worker hit multiprocessing's
daemonic-pool restriction and silently fell back to serial grid runs, so
the paper's most expensive experiments (Tables 1/2, Figure 9 -- all sweeps
of best-over-grid solves) never used more than one process per grid point.

:class:`FlatExecutor` replaces both layers with a single flat task queue:

* **Decomposition.**  :meth:`FlatExecutor.run_jobs` breaks every job into
  scheduler-run *tasks*.  A ``best`` job explodes into the deduplicated,
  estimate-ordered grid runs of a
  :class:`~repro.core.grid_sweep.GridSweepState`, any other solver stays
  one task.  Parallelism granularity is the individual scheduler run, so
  stragglers shrink and nested pools disappear -- workers never need a
  pool of their own.
* **Dispatch.**  Tasks flow through ``imap_unordered`` behind a sliding
  backpressure window, and results are reassembled deterministically by
  ``(job index, run key)``.  Cross-task incumbent makespans for the same
  ``best`` job feed later tasks of that job two ways: injected into the
  task at yield time, and (on fork pools) published on a shared lock-free
  *incumbent board* that workers re-read when a task actually starts, so
  pruning stays tight even for tasks dispatched early in large chunks.
  Incumbents only ever tighten monotonically towards the final winner --
  a stale (looser) limit can never abort the winner -- so the selected
  schedule, winner grid point and statistics are bit-identical for every
  worker count.
* **Persistence.**  The pool outlives one call: it is created lazily,
  keyed on the *SOC universe* of the :class:`~repro.engine.jobs.EngineContext`
  (constraint sets are small and travel inside tasks, so a Table 1 sweep,
  a Table 2 sweep and a direct ``best`` solve over the same SOC all share
  one pool) plus the worker count and warmed cache pairs, and reused by
  subsequent ``run_jobs`` / ``Session.solve`` calls, keeping the workers'
  warm wrapper-curve and rectangle caches.  A SOC-universe change
  refreshes the pool (cheap under ``fork``: the parent's caches -- warmed
  *before* the fork -- are inherited); :meth:`FlatExecutor.close` tears it
  down explicitly and an ``atexit`` hook closes the process-wide default
  executor.

* **Supervision.**  Dispatch runs under a watchdog (see
  :mod:`repro.engine.faults`): every task failure becomes a structured
  :class:`~repro.engine.faults.FailureRecord`, worker exceptions get a
  bounded deterministic retry (exponential backoff keyed on the task
  fingerprint -- no wall-clock jitter), a stalled or broken pool (worker
  kills surface as stalls under ``multiprocessing.Pool``, which silently
  replaces dead workers and loses their in-flight results) is torn down
  and *resurrected* with only the unacknowledged tasks re-dispatched, a
  task implicated in two pool deaths is *quarantined* (re-run in-process,
  never handed to a worker again), and when no pool can be created at all
  the remaining tasks drain on the deterministic serial path.  Each
  downward step is recorded on the ordered recovery ladder
  ``parallel -> resurrected -> quarantined -> serial``
  (:class:`~repro.engine.faults.RecoveryEvent`), surfaced through
  :class:`~repro.engine.results.ExecutorStats`, result metadata and the
  ``repro chaos`` harness; ``degraded_to_serial`` survives as a derived
  compatibility property.  Because retry, re-dispatch and quarantine all
  re-execute *pure* tasks and reassembly stays keyed on
  ``(job index, run key)``, recovered runs remain bit-identical to the
  fault-free serial reference -- the property the chaos tests pin under
  injected worker kills, exceptions, hangs and pool-creation failures
  (:class:`~repro.engine.faults.FaultPlan`, ``REPRO_FAULT_PLAN``).

When no pool can be created at all (sandboxes without semaphores,
daemonic workers) the executor degrades to the deterministic serial path
-- *observably*: a :class:`RuntimeWarning` is emitted and the returned
:class:`~repro.engine.results.SweepResults` carry a ``serial`` recovery
event (hence ``degraded_to_serial=True``) in their
:class:`~repro.engine.results.ExecutorStats`.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import multiprocessing
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core.data_volume import tester_data_volume
from repro.core.grid_sweep import (
    DEFAULT_DELTAS,
    DEFAULT_PERCENTS,
    DEFAULT_SLACKS,
    GridPoint,
    GridSweepState,
    _execute_run,
    preferred_pool_context,
)
from repro.core.rectangles import soc_plan
from repro.core.scheduler import IncumbentAbort, SchedulerConfig
from repro.engine.faults import (
    STAGE_PARALLEL,
    STAGE_QUARANTINED,
    STAGE_RESURRECTED,
    STAGE_SERIAL,
    CancelledSolve,
    FailureRecord,
    FaultPlan,
    RecoveryEvent,
    active_cancel_token,
    apply_task_fault,
    backoff_delay,
    encode_recovery_events,
    format_error,
)
from repro.engine.jobs import EngineContext, EngineError, JobResult, ScheduleJob
from repro.engine.results import ExecutorStats, SweepResults
from repro.soc.constraints import ConstraintSet
from repro.soc.soc import Soc
from repro.solvers.registry import normalize_solver_name
from repro.solvers.request import ScheduleRequest
from repro.solvers.session import get_default_session

#: Option names the ``best`` solver understands; a best job carrying any
#: other option is left whole so the solver raises its canonical error.
_BEST_OPTION_NAMES = frozenset({"percents", "deltas", "slacks", "workers"})

#: Exceptions that mean "no pool can be created here" (sandboxes without
#: working semaphores, platforms without fork/spawn, daemonic workers).
_POOL_CREATION_ERRORS = (ImportError, OSError, PermissionError, AssertionError)

try:  # the canonical dead-pool exception lives in concurrent.futures
    from concurrent.futures.process import BrokenProcessPool as _BrokenProcessPool
except ImportError:  # pragma: no cover - ancient/stripped stdlib

    class _BrokenProcessPool(RuntimeError):  # type: ignore[no-redef]
        """Placeholder when concurrent.futures is unavailable."""


#: Exceptions that mean "the pool died under us mid-stream" (a worker was
#: killed hard enough to break the result pipe, or the pool machinery
#: itself tore).  ``BrokenPipeError``/``ConnectionError`` are ``OSError``
#: subclasses; the broad ``OSError`` is deliberate -- on the parent-side
#: result iterator any I/O error is pool infrastructure, never task code
#: (task exceptions come back as :class:`_TaskFailure` payloads).
_POOL_DEATH_ERRORS = (_BrokenProcessPool, OSError, EOFError)

#: Slots on the shared incumbent board (one per concurrently-dispatched
#: grid plan; plans beyond the board fall back to dispatch-time limits).
_BOARD_SLOTS = 1024

#: How many pool deaths a task must be in flight for before it is deemed
#: poisoned and quarantined to the in-process serial path.
_QUARANTINE_STRIKES = 2

#: Watchdog default: a pooled run with no task reply for this long is
#: declared stalled and resurrected.  Generous on purpose -- legitimate
#: scheduler runs are sub-second, so a stall is pathological long before
#: five minutes -- and overridable per executor or via the environment.
DEFAULT_TASK_DEADLINE = 300.0
ENV_TASK_DEADLINE = "REPRO_TASK_DEADLINE"

#: Bounded-retry defaults: a task exception is retried at most this many
#: times, with deterministic exponential backoff (see
#: :func:`repro.engine.faults.backoff_delay`) between rounds.
DEFAULT_MAX_TASK_RETRIES = 2
DEFAULT_RETRY_BACKOFF = 0.05

#: Mid-run abort cadence: workers re-read their task's incumbent-board
#: slot every this many scheduler completion events and raise
#: :class:`~repro.core.scheduler.IncumbentAbort` when the running partial
#: makespan can no longer beat the freshest incumbent.  ``0`` disables the
#: checkpoint (dispatch-time and task-start limits still apply).
_BOARD_POLL = 8

#: Cap on the derived chunk size: a lost chunk re-dispatches every task in
#: it after a pool death, so unbounded chunks would make resurrection
#: rounds arbitrarily expensive on very long queues.
_MAX_CHUNKSIZE = 64


# ----------------------------------------------------------------------
# Per-job execution and cache warming (shared by serial path and workers)
# ----------------------------------------------------------------------
def execute_job(job: ScheduleJob, context: EngineContext) -> JobResult:
    """Run one whole job to completion in the current process.

    The job is dispatched through the process-wide solver session, so its
    Pareto rectangle sets come from (and warm) the shared cache.
    """
    soc, constraints = context.resolve(job)
    return _solve_job(job, soc, constraints)


def _solve_job(
    job: ScheduleJob,
    soc: Soc,
    constraints: Optional[ConstraintSet],
    suppress_fanout: bool = False,
) -> JobResult:
    """``execute_job`` with the context references already resolved.

    ``suppress_fanout`` is set when the job runs *inside* a pool worker:
    the flat pool already is the parallelism, so a solver-level ``workers``
    option is forced serial.  Without this, a ``best`` job dispatched
    whole would attempt a nested pool in a daemonic worker and stamp its
    (environment-dependent) ``degraded_to_serial`` marker into result
    metadata, breaking bit-identity with the serial reference.
    """
    options = job.solver_options()
    if suppress_fanout and options.get("workers"):
        options["workers"] = 0
    result = get_default_session().solve(
        ScheduleRequest(
            soc=soc,
            total_width=job.width,
            solver=job.solver,
            config=job.config,
            constraints=constraints,
            options=options,
        )
    )
    if result.schedule is None:
        raise EngineError(
            f"solver {job.solver!r} produces no schedule and cannot run as an "
            "engine job"
        )
    return JobResult(
        job=job,
        makespan=result.makespan,
        data_volume=result.data_volume,
        schedule=result.schedule,
        metadata=tuple(sorted(result.metadata.items())),
        wall_time=result.wall_time,
        worker=multiprocessing.current_process().name,
    )


def prime_context_caches(
    context: EngineContext, pairs: Iterable[Tuple[str, int]]
) -> int:
    """Warm the Pareto caches for exactly the referenced (SOC, width) pairs.

    ``pairs`` holds ``(soc_key, max_core_width)`` tuples -- only those
    combinations are warmed, so a multi-SOC context does not pay for the
    full SOC x width cross-product when the job list references a subset.

    Both the per-process testing-time curve memo and the default solver
    session's rectangle cache are primed, so every subsequent solve of a
    referenced combination skips wrapper design entirely.  Returns the
    number of per-core curves now cached.
    """
    return _prime_soc_pairs(dict(context.socs), pairs)


def _prime_soc_pairs(
    socs: Dict[str, Soc], pairs: Iterable[Tuple[str, int]]
) -> int:
    """Warm the curve memo, session rectangle cache and SOC plans for exact pairs."""
    from repro.wrapper.pareto import prime_pareto_cache

    session = get_default_session()
    primed = 0
    for key, width in sorted(set(pairs)):
        soc = socs[key]
        primed += prime_pareto_cache(soc.cores, int(width))
        soc_plan(soc, session.rectangle_sets(soc, int(width)))
    return primed


# ----------------------------------------------------------------------
# Worker-side task execution
# ----------------------------------------------------------------------
# SOC universe installed in each pool worker by the initializer (fork
# workers inherit the parent's module state; spawn workers receive it via
# initargs).  Tasks reference SOCs by key -- the one large object ships
# once per worker -- while the (small) constraint sets travel inside each
# task, so the pool does not have to be rebuilt when only the constraint
# vocabulary of a job list changes.
_WORKER_SOCS: Optional[Dict[str, Soc]] = None

# The shared incumbent board: a lock-free int64 array (fork pools only).
# The parent writes each grid plan's tightening incumbent makespan into the
# plan's slot; workers read it when a task starts, so pruning limits stay
# tight even when tasks were dispatched (chunked) long before they run.
# Writes are monotone decreasing towards the final winner, so a torn or
# stale read can only yield a *looser* limit -- never an unsound one.
_WORKER_BOARD: Optional[Any] = None  # repro: fork-local

# The fault-injection plan, installed only in pool workers: the parent's
# quarantine and serial-drain paths run injection-free by construction, so
# every recovery ladder terminates (a persistently-hanging task can only
# hang a disposable worker, never the supervising process).
_WORKER_FAULTS: Optional[FaultPlan] = None  # repro: fork-local


def _init_worker(
    socs: Dict[str, Soc],
    pairs: Sequence[Tuple[str, int]],
    board: Optional[Any] = None,
    faults: Optional[FaultPlan] = None,
) -> None:
    """Pool initializer: install the SOC universe, warm the caches.

    Under ``fork`` the priming is a cache hit (the parent warmed the same
    pairs just before creating the pool) and ``socs`` arrives by
    inheritance; under ``spawn``/``forkserver`` it is pickled through
    ``initargs`` once per worker and the caches are built here.
    """
    global _WORKER_SOCS, _WORKER_BOARD, _WORKER_FAULTS
    _WORKER_SOCS = dict(socs)
    _WORKER_BOARD = board
    _WORKER_FAULTS = faults
    _prime_soc_pairs(_WORKER_SOCS, pairs)


@dataclass(frozen=True)
class _JobTask:
    """One whole job, executed via the worker's solver session.

    The constraint set is resolved in the parent and travels with the
    task (it is small); the SOC stays a key into the worker's universe.
    ``attempt`` is the 1-based dispatch count (stamped by the supervisor;
    it feeds retry bookkeeping and deterministic fault injection).
    """

    job_index: int
    job: ScheduleJob
    constraints: Optional[ConstraintSet]
    attempt: int = 1


@dataclass(frozen=True)
class _GridTask:
    """One deduplicated scheduler run of a decomposed ``best`` job.

    ``limit`` is the incumbent makespan of the owning job at dispatch time
    (monotone-tightening only; ``None`` until the job's first result).
    ``slot`` indexes the shared incumbent board for a fresher limit at run
    time (``-1`` when no board is available).  ``attempt`` is the 1-based
    dispatch count stamped by the supervisor.
    """

    job_index: int
    run_index: int
    soc: str
    width: int
    constraints: Optional[ConstraintSet]
    config: SchedulerConfig
    point: GridPoint
    vector: Tuple[int, ...]
    limit: Optional[int]
    slot: int = -1
    attempt: int = 1


@dataclass(frozen=True)
class _BoardAbort:
    """Reply payload of a grid run killed mid-run by the incumbent board.

    Equivalent to a pruned run for reassembly (the aborted run is strictly
    worse than some completed makespan, so it can never win), but counted
    separately as ``board_aborts``.
    """


_Task = Union[_JobTask, _GridTask]

#: Supervisor-side task identity, stable across retries and resurrection
#: rounds: ``(job index, run index)`` with ``-1`` for whole-job tasks.
_TaskKey = Tuple[int, int]


def _task_key(task: _Task) -> _TaskKey:
    return (task.job_index, -1 if isinstance(task, _JobTask) else task.run_index)


def task_fingerprint(task: _Task) -> str:
    """The stable, human-greppable identity of one task.

    Fault plans match on substrings of this string and the retry backoff
    is keyed on it, so the format is part of the chaos-harness contract:
    ``job:{soc}:w{width}:{solver}:i{job index}`` for whole jobs,
    ``grid:{soc}:w{width}:j{job index}:r{run index}`` for grid runs.
    """
    if isinstance(task, _JobTask):
        job = task.job
        return f"job:{job.soc}:w{job.width}:{job.solver}:i{job.index}"
    return f"grid:{task.soc}:w{task.width}:j{task.job_index}:r{task.run_index}"


@dataclass(frozen=True)
class _TaskFailure:
    """A worker-side task exception, shipped back as an ordinary reply.

    Returning failures as payloads (rather than letting them propagate
    through ``imap_unordered``) keeps the result iterator healthy, so one
    bad task cannot poison the replies of its siblings.  ``exception``
    carries the original exception when it pickles cleanly (verified
    worker-side with a full dumps/loads round-trip), letting the parent
    re-raise the canonical error after retries are exhausted.
    """

    fingerprint: str
    attempt: int
    error: str
    exception: Optional[BaseException] = None


def _portable_exception(
    error: BaseException,
) -> Tuple[Optional[BaseException], str]:
    """``(error, "")`` when it survives a pickle round-trip, else ``(None, why)``.

    Custom ``__reduce__``/``__setstate__`` hooks can raise anything, so the
    probe has to catch broadly; the reason travels back as text so the
    parent's journal still explains why the canonical exception was dropped.
    """
    try:
        pickle.loads(pickle.dumps(error))
    except Exception as probe:
        return None, f"exception not portable ({format_error(probe)})"
    return error, ""


#: What a worker sends back per task, keyed for deterministic reassembly:
#: ``(job_index, run_index, payload, wall_seconds)``.  ``run_index`` is
#: ``None`` for whole-job tasks (payload: the JobResult); for grid tasks
#: the payload is ``None`` (pruned), a bare makespan (completed but not a
#: strict improvement on the dispatch limit -- the schedule stays in the
#: worker to save IPC), or a ``(makespan, schedule)`` pair.  A task that
#: raised ships a :class:`_TaskFailure` payload instead.
_TaskReply = Tuple[int, Optional[int], Any, float]


def _execute_task(task: _Task) -> _TaskReply:
    """Worker entry point: fault-injection hook, payload, failure capture."""
    started = time.perf_counter()
    fingerprint = task_fingerprint(task)
    try:
        if _WORKER_FAULTS is not None:
            apply_task_fault(_WORKER_FAULTS, fingerprint, task.attempt)
        return _execute_payload(task, started)
    except (KeyboardInterrupt, SystemExit):
        # Genuinely fatal: let it kill this worker; the parent's watchdog
        # supervises the resulting stall.
        raise
    except Exception as error:
        run_index = None if isinstance(task, _JobTask) else task.run_index
        portable, note = _portable_exception(error)
        text = format_error(error)
        failure = _TaskFailure(
            fingerprint=fingerprint,
            attempt=task.attempt,
            error=f"{text}; {note}" if note else text,
            exception=portable,
        )
        return (task.job_index, run_index, failure, time.perf_counter() - started)


def _execute_chunk(tasks: Tuple[_Task, ...]) -> Tuple[_TaskReply, ...]:
    """Worker entry point: run a parent-chunked batch of tasks.

    Chunking happens parent-side rather than through ``imap_unordered``'s
    own ``chunksize``: CPython wraps a chunked ``imap_unordered`` in a
    plain flattening generator, which loses the ``next(timeout=...)`` API
    the watchdog needs.  A worker death mid-chunk loses the whole batch's
    replies; every task in it stays unacknowledged and re-dispatches.
    """
    return tuple(_execute_task(task) for task in tasks)


def _execute_payload(task: _Task, started: float) -> _TaskReply:
    assert _WORKER_SOCS is not None, "worker used before initialization"
    if isinstance(task, _JobTask):
        soc = _WORKER_SOCS[task.job.soc]
        result = _solve_job(task.job, soc, task.constraints, suppress_fanout=True)
        return (task.job_index, None, result, time.perf_counter() - started)
    soc = _WORKER_SOCS[task.soc]
    constraints = task.constraints
    limit = task.limit
    probe = None
    probe_interval = 0
    if task.slot >= 0 and _WORKER_BOARD is not None:
        shared = _WORKER_BOARD[task.slot]
        if shared and (limit is None or shared < limit):
            limit = int(shared)
        if _BOARD_POLL > 0:
            # Arm the mid-run checkpoint: re-read this plan's board slot
            # every K completion events inside the scheduler event loop.
            board, slot = _WORKER_BOARD, task.slot
            probe_interval = _BOARD_POLL

            def probe() -> int:
                return int(board[slot])

    sets = get_default_session().rectangle_sets(soc, task.config.max_core_width)
    try:
        schedule = _execute_run(
            soc,
            task.width,
            constraints or ConstraintSet.unconstrained(),
            task.config,
            sets,
            task.point,
            task.vector,
            limit,
            limit_probe=probe,
            probe_interval=probe_interval,
        )
    except IncumbentAbort:
        # The board proved this run strictly worse than a completed
        # sibling mid-run; ship the (tiny) abort marker instead of a
        # result.  Reassembly treats it as pruned, the journal counts it.
        wall = time.perf_counter() - started
        return (task.job_index, task.run_index, _BoardAbort(), wall)
    wall = time.perf_counter() - started
    if schedule is None:  # pruned by the incumbent limit
        return (task.job_index, task.run_index, None, wall)
    makespan = schedule.makespan
    if task.slot >= 0 and _WORKER_BOARD is not None:
        # Publish the completed makespan so sibling tasks of the same job
        # prune against it without waiting for the parent's round-trip.
        # Any completed makespan bounds the job's final best from above,
        # so the (unlocked) read-compare-write race is benign: a lost
        # update can only leave a looser -- never an unsound -- limit.
        current = _WORKER_BOARD[task.slot]
        if current == 0 or makespan < current:
            _WORKER_BOARD[task.slot] = makespan
    if limit is not None and makespan >= limit:
        # Completed but no strict improvement on the incumbent known at
        # dispatch: the makespan alone decides the winner, so the (large)
        # schedule stays out of the result pipe.  In the rare case this
        # run still wins on the index tie-break, the parent deterministically
        # recomputes its schedule once, limit-free.
        return (task.job_index, task.run_index, makespan, wall)
    return (task.job_index, task.run_index, (makespan, schedule), wall)


# ----------------------------------------------------------------------
# Parent-side plans (one per job)
# ----------------------------------------------------------------------
class _JobPlan:
    """A job executed whole: exactly one task, result passed through."""

    __slots__ = ("job", "constraints", "result", "events")

    def __init__(
        self, job: ScheduleJob, constraints: Optional[ConstraintSet]
    ) -> None:
        self.job = job
        self.constraints = constraints
        self.result: Optional[JobResult] = None
        self.events: List[RecoveryEvent] = []

    @property
    def task_count(self) -> int:
        return 1

    @property
    def settled(self) -> bool:
        return self.result is not None

    def pending_tasks(self, job_index: int) -> Iterator[_JobTask]:
        if self.result is None:
            yield _JobTask(job_index=job_index, job=self.job, constraints=self.constraints)

    def absorb(self, run_index: Optional[int], payload: Any, wall: float) -> None:
        self.result = payload

    def run_in_process(self, task: _Task, socs: Dict[str, Soc]) -> None:
        self.result = _solve_job(
            self.job, socs[self.job.soc], self.constraints, suppress_fanout=True
        )

    def finish(self) -> JobResult:
        assert self.result is not None, "job task produced no result"
        result = self.result
        if self.events:
            # Recovery steps that touched this job travel in its metadata
            # (scalar-encoded, so sweep CSV exports grow the column).  A
            # clean run appends nothing, keeping serial/parallel metadata
            # comparisons exact.
            metadata = dict(result.metadata)
            metadata["recovery_events"] = encode_recovery_events(self.events)
            result = replace(result, metadata=tuple(sorted(metadata.items())))
        return result


class _GridPlan:
    """One decomposed ``best`` job: a :class:`GridSweepState` plus dispatch fields.

    The state owns the incumbent and the winner rule; the plan only turns
    its pending runs into pickled tasks and worker replies back into
    :meth:`GridSweepState.absorb` calls.  ``job`` is ``None`` for a direct
    :meth:`FlatExecutor.run_grid_runs` sweep, whose caller builds the outcome.
    """

    __slots__ = ("job", "state", "soc_key", "slot", "events", "wall")

    def __init__(
        self, job: Optional[ScheduleJob], state: GridSweepState, soc_key: str
    ) -> None:
        self.job = job
        self.state = state
        self.soc_key = soc_key
        self.slot = -1  # shared incumbent-board slot, assigned at dispatch
        self.events: List[RecoveryEvent] = []
        self.wall = 0.0

    @property
    def task_count(self) -> int:
        return len(self.state.runs)

    @property
    def settled(self) -> bool:
        return self.state.settled

    def pending_tasks(self, job_index: int) -> Iterator[_GridTask]:
        state = self.state
        for run in state.pending():
            yield _GridTask(
                job_index=job_index,
                run_index=run.index,
                soc=self.soc_key,
                width=state.width,
                constraints=state.constraints,
                config=state.config,
                point=run.point,
                vector=run.preferred_widths,
                limit=state.limit(),
                slot=self.slot,
            )

    def absorb(self, run_index: Optional[int], payload: Any, wall: float) -> None:
        assert run_index is not None
        self.wall += wall
        if isinstance(payload, tuple):  # (makespan, schedule)
            self.state.absorb(run_index, *payload)
        else:  # pruned (None) or a bare makespan
            self.state.absorb(run_index, payload, None)

    def run_in_process(self, task: _Task, socs: Dict[str, Soc]) -> None:
        assert isinstance(task, _GridTask)
        started = time.perf_counter()
        self.state.execute(self.state.by_index[task.run_index])
        self.wall += time.perf_counter() - started

    def finish(self) -> JobResult:
        """Assemble the JobResult exactly as the undecomposed path would."""
        assert self.job is not None
        state = self.state
        outcome = state.outcome(tuple(self.events))
        schedule = outcome.schedule
        # Parity with Session.solve: the best solver supports constraints,
        # so its schedules are validated against them.
        schedule.validate(state.soc, constraints=state.constraints)
        return JobResult(
            job=self.job,
            makespan=outcome.makespan,
            data_volume=tester_data_volume(schedule),
            schedule=schedule,
            metadata=tuple(sorted(outcome.metadata().items())),
            wall_time=self.wall,
            worker="flat-pool",
        )


_Plan = Union[_JobPlan, _GridPlan]


# ----------------------------------------------------------------------
# Supervision bookkeeping
# ----------------------------------------------------------------------
class _Journal:
    """Mutable per-run fault journal (parent-side only).

    Accumulates the structured :class:`FailureRecord`\\ s and recovery
    ladder :class:`RecoveryEvent`\\ s that one ``run_jobs``/``run_grid_runs``
    call produced, plus the matching counters; frozen into
    :class:`~repro.engine.results.ExecutorStats` when the run finishes.
    """

    __slots__ = (
        "failures",
        "events",
        "retries",
        "resurrections",
        "quarantined",
        "pools_created",
        "board_aborts",
    )

    def __init__(self) -> None:
        self.failures: List[FailureRecord] = []
        self.events: List[RecoveryEvent] = []
        self.retries = 0
        self.resurrections = 0
        self.quarantined = 0
        self.pools_created = 0
        self.board_aborts = 0

    def failure(
        self,
        kind: str,
        action: str,
        error: str = "",
        task: str = "",
        attempt: int = 0,
    ) -> FailureRecord:
        record = FailureRecord(
            kind=kind, task=task, attempt=attempt, error=error, action=action
        )
        self.failures.append(record)
        return record

    def event(self, stage: str, reason: str, task: str = "") -> RecoveryEvent:
        event = RecoveryEvent(stage=stage, reason=reason, task=task)
        self.events.append(event)
        return event


@dataclass(frozen=True)
class _RoundFailure:
    """One dead/stalled dispatch round: what broke, and the suspects.

    ``suspects`` holds every task that was dispatched but unacknowledged
    when the pool died -- the only tasks whose work could have been lost,
    and therefore the only ones re-dispatched after resurrection.
    """

    kind: str  # "pool-stall" | "pool-death"
    reason: str  # recovery-event slug: "stalled" | "pool-death"
    error: str
    suspects: Dict[_TaskKey, _Task]


def _resolve_task_deadline(value: Optional[float]) -> Optional[float]:
    """The effective watchdog deadline; ``None`` means disabled."""
    if value is None:
        raw = os.environ.get(ENV_TASK_DEADLINE, "").strip()
        if raw:
            try:
                value = float(raw)
            except ValueError:
                raise EngineError(
                    f"{ENV_TASK_DEADLINE}={raw!r} is not a number"
                ) from None
        else:
            value = DEFAULT_TASK_DEADLINE
    return float(value) if value > 0 else None


def _resolve_chunksize(total_tasks: int, processes: int) -> int:
    """Derive the dispatch chunk size from queue length and worker count.

    Targets roughly a dozen chunks per worker: deep enough that the
    backpressure window stays populated, shallow enough that stragglers
    spread and late chunks are dispatched after the incumbent tightened.
    Capped (see :data:`_MAX_CHUNKSIZE`) so a pool death never forfeits an
    unbounded batch of replies.
    """
    waves = 12
    return max(1, min(total_tasks // (max(1, processes) * waves), _MAX_CHUNKSIZE))


def _warn_pool_degrade(reason: str, detail: str) -> None:
    warnings.warn(
        f"{reason}: no worker pool could be created ({detail}); degrading "
        "to the serial path (results are identical, wall time is not)",
        RuntimeWarning,
        stacklevel=4,
    )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class FlatExecutor:
    """A persistent process pool fed by one flat scheduler-run task queue.

    One executor owns (at most) one pool.  The pool is created lazily on
    the first parallel dispatch, keyed on the *SOC universe* (the context's
    key -> SOC mapping -- constraint sets travel inside tasks, so Table 1
    and Table 2 sweeps over the same SOC share one pool), the process
    count and the set of warmed ``(SOC, max width)`` cache pairs; it is
    reused verbatim while those match and refreshed (close + recreate)
    when they change.  ``close()`` tears the pool down; the process-wide
    default executor (:func:`get_default_executor`) is closed at exit.

    The executor holds no winner rule of its own: every decomposed
    ``best`` job (and every :meth:`run_grid_runs` sweep) absorbs its
    replies into a :class:`~repro.core.grid_sweep.GridSweepState`, the
    same state the serial sweep drives, and the quarantine and serial
    drain rungs run their grid tasks through its ``execute``.
    """

    def __init__(
        self,
        window_factor: int = 4,
        task_deadline: Optional[float] = None,
        max_task_retries: int = DEFAULT_MAX_TASK_RETRIES,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        """Configure the supervision envelope.

        ``task_deadline`` is the watchdog: seconds without any task reply
        before the pool is declared stalled and resurrected (``None``
        reads ``REPRO_TASK_DEADLINE`` or falls back to the default; a
        non-positive value disables the watchdog entirely).
        ``max_task_retries`` bounds worker-side retries per task;
        ``retry_backoff`` is the deterministic exponential-backoff base
        (non-positive disables sleeping).  ``fault_plan`` installs a
        deterministic injection schedule in every pool worker (``None``
        reads ``REPRO_FAULT_PLAN``; an empty plan means no injection).
        """
        if window_factor < 1:
            raise EngineError("window_factor must be positive")
        self._window_factor = int(window_factor)
        self._task_deadline = _resolve_task_deadline(task_deadline)
        if max_task_retries < 0:
            raise EngineError(
                f"max_task_retries must be non-negative, got {max_task_retries}"
            )
        self._max_task_retries = int(max_task_retries)
        self._retry_backoff = float(retry_backoff)
        plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._fault_plan: Optional[FaultPlan] = plan if plan else None
        self._pool_faults_left = plan.pool_failure_budget() if plan else 0
        self._pool: Optional[Any] = None
        self._board: Optional[Any] = None
        self._socs: Optional[Dict[str, Soc]] = None
        self._processes = 0
        self._pairs: Set[Tuple[str, int]] = set()
        self._last_failures: Tuple[FailureRecord, ...] = ()
        self._last_events: Tuple[RecoveryEvent, ...] = ()
        self._last_stats: Optional[ExecutorStats] = None

    # -- lifecycle ------------------------------------------------------
    @property
    def pool_alive(self) -> bool:
        """Whether a worker pool is currently up."""
        return self._pool is not None

    @property
    def last_failures(self) -> Tuple[FailureRecord, ...]:
        """The fault journal of the most recent run (empty when clean)."""
        return self._last_failures

    @property
    def last_recovery_events(self) -> Tuple[RecoveryEvent, ...]:
        """The recovery ladder of the most recent run (empty when clean)."""
        return self._last_events

    @property
    def last_stats(self) -> Optional[ExecutorStats]:
        """Execution stats of the most recent pooled run (``None`` before one).

        This is how callers above the solver boundary (the CLI, the bench
        suites) observe the execution counters without them entering
        result metadata -- result metadata stays bit-identical between the
        serial reference and every parallel configuration.
        """
        return self._last_stats

    @property
    def processes(self) -> int:
        """Worker processes of the live pool (0 when no pool is up)."""
        return self._processes if self._pool is not None else 0

    def close(self) -> None:
        """Tear down the pool (if any).  The executor stays usable.

        Idempotent and shutdown-safe: the pool handle is detached before
        teardown begins, so a second ``close()`` (or ``Session.close()``
        after ``use_executor`` already closed, or the atexit hook firing
        after an explicit close) is a pure no-op, and teardown of a pool
        whose workers are already dead or reaped cannot raise out of
        ``close()`` -- ``terminate``/``join`` on a half-collected pool
        during interpreter shutdown is best-effort by construction.
        """
        pool, self._pool = self._pool, None
        self._board = None
        self._socs = None
        self._processes = 0
        self._pairs = set()
        if pool is not None:
            with contextlib.suppress(Exception):
                pool.terminate()
            with contextlib.suppress(Exception):
                pool.join()

    def __enter__(self) -> "FlatExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _ensure_pool(
        self,
        socs: Dict[str, Soc],
        pairs: Set[Tuple[str, int]],
        processes: int,
        reason: str,
        journal: _Journal,
    ) -> Optional[Any]:
        """A pool matching (SOC universe, processes) with ``pairs`` warm.

        The parent's caches are primed *before* the fork so workers inherit
        them warm.  On creation failure a RuntimeWarning is emitted, a
        ``pool-creation`` :class:`FailureRecord` is journalled and ``None``
        returned -- the supervisor drains the remaining work serially.
        """
        if (
            self._pool is not None
            and self._socs == socs
            and self._processes == processes
            and pairs <= self._pairs
        ):
            # The process count must match exactly: dispatch fans tasks
            # out over every pool worker, so reusing a larger pool would
            # silently exceed the caller's documented worker cap.
            return self._pool
        self.close()
        _prime_soc_pairs(socs, pairs)
        if self._fault_plan is not None and self._pool_faults_left > 0:
            # Injected pool-creation failure: consume one budget unit and
            # behave exactly like the real thing (warning included).
            self._pool_faults_left -= 1
            error_text = "InjectedFault: injected pool-creation failure"
            journal.failure(kind="pool-creation", action="serial", error=error_text)
            _warn_pool_degrade(reason, error_text)
            return None
        pool_context = preferred_pool_context()
        board = None
        if pool_context.get_start_method() == "fork":
            # The incumbent board rides on fork inheritance; spawn pools
            # simply run with dispatch-time limits only.
            try:
                board = pool_context.RawArray(ctypes.c_int64, _BOARD_SLOTS)
            except _POOL_CREATION_ERRORS as error:
                journal.failure(
                    kind="board-creation",
                    action="continue",
                    error=format_error(error),
                )
                board = None
        try:
            pool = pool_context.Pool(
                processes=processes,
                initializer=_init_worker,
                initargs=(socs, tuple(sorted(pairs)), board, self._fault_plan),
            )
        except _POOL_CREATION_ERRORS as error:
            journal.failure(
                kind="pool-creation", action="serial", error=format_error(error)
            )
            _warn_pool_degrade(reason, format_error(error))
            return None
        journal.pools_created += 1
        self._pool = pool
        self._board = board
        self._socs = dict(socs)
        self._processes = processes
        self._pairs = set(pairs)
        return pool

    # -- planning -------------------------------------------------------
    def _plan(
        self, job: ScheduleJob, context: EngineContext, session: Any
    ) -> _Plan:
        """Decompose one job into its flat-task plan.

        Only ``best`` jobs with recognised options decompose; anything
        else (including a best job carrying unknown options, which must
        raise the solver's canonical error) stays whole.
        """
        soc, constraints = context.resolve(job)
        try:
            is_best = normalize_solver_name(job.solver) == "best"
        except (AttributeError, TypeError):
            # job.solver is a validated non-empty str (ScheduleJob raises at
            # construction), so this only guards exotic str subclasses; any
            # such job schedules whole, never silently best-decomposed.
            is_best = False
        if not is_best:
            return _JobPlan(job, constraints)
        options = job.solver_options()
        if not set(options) <= _BEST_OPTION_NAMES:
            return _JobPlan(job, constraints)
        state = GridSweepState(
            soc,
            job.width,
            constraints,
            job.config,
            session.rectangle_sets(soc, job.config.max_core_width),
            tuple(options.get("percents") or DEFAULT_PERCENTS),
            tuple(options.get("deltas") or DEFAULT_DELTAS),
            tuple(options.get("slacks") or DEFAULT_SLACKS),
        )
        return _GridPlan(job, state, job.soc)

    # -- dispatch -------------------------------------------------------
    def _supervise(
        self,
        plans: Sequence[_Plan],
        socs: Dict[str, Soc],
        pairs: Set[Tuple[str, int]],
        processes: int,
        chunksize: int,
        journal: _Journal,
        reason: str,
    ) -> None:
        """Drive every plan to settlement, descending the recovery ladder.

        Work proceeds in *rounds*: each round dispatches every pending
        (unacknowledged, unskippable) task through the pool.  A clean
        round that leaves retryable failures is followed by another
        round (bounded per-task attempts, deterministic backoff);
        a stalled or broken pool is torn down, tasks implicated in
        ``_QUARANTINE_STRIKES`` pool deaths are quarantined to an
        in-process run, and the pool is resurrected for the survivors.
        When no pool can be created the remaining tasks drain on the
        serial path.  Every step is journalled; clean runs journal
        nothing, which is what keeps their results and metadata
        bit-identical to the serial reference.
        """
        attempts: Dict[_TaskKey, int] = {}
        suspect_strikes: Dict[_TaskKey, int] = {}
        resurrect_reason: Optional[str] = None
        while not all(plan.settled for plan in plans):
            pool = self._ensure_pool(socs, pairs, processes, reason, journal)
            if pool is None:
                event = journal.event(STAGE_SERIAL, reason="pool-creation")
                if journal.pools_created:
                    # Mid-run downgrade: jobs that still had pending work
                    # record it.  An *entry* downgrade (no pool ever
                    # existed) stays out of job metadata so results match
                    # the serial reference exactly, as they always did.
                    for plan in plans:
                        if not plan.settled:
                            plan.events.append(event)
                self._drain_serial(plans, socs)
                return
            if resurrect_reason is not None:
                journal.resurrections += 1
                event = journal.event(STAGE_RESURRECTED, reason=resurrect_reason)
                for plan in plans:
                    if not plan.settled:
                        plan.events.append(event)
                resurrect_reason = None
            try:
                failure, retry_delay = self._stream_round(
                    pool, plans, processes, chunksize, attempts, journal
                )
            except (KeyboardInterrupt, SystemExit) as error:
                journal.failure(
                    kind="fatal", action="raise", error=format_error(error)
                )
                self.close()  # drop abandoned in-flight tasks with the pool
                raise
            except Exception:
                # Already journalled at the failure site; the pool goes
                # with the abandoned in-flight tasks.
                self.close()
                raise
            if failure is None:
                if retry_delay > 0:
                    time.sleep(retry_delay)
                continue  # settled plans end the loop; retries re-dispatch
            # The pool is stalled or broken: record, tear it down, add a
            # strike against every unacknowledged task, quarantine repeat
            # offenders in-process (which acknowledges them, so they are
            # never dispatched again), then resurrect for the survivors.
            journal.failure(
                kind=failure.kind, action="resurrect", error=failure.error
            )
            self.close()
            ordered_suspects = sorted(failure.suspects)
            for key in ordered_suspects:
                suspect_strikes[key] = suspect_strikes.get(key, 0) + 1
            for key in ordered_suspects:
                if suspect_strikes[key] < _QUARANTINE_STRIKES:
                    continue
                task = failure.suspects[key]
                fingerprint = task_fingerprint(task)
                journal.quarantined += 1
                journal.failure(
                    kind=failure.kind,
                    action="quarantine",
                    error=failure.error,
                    task=fingerprint,
                    attempt=attempts.get(key, 0),
                )
                event = journal.event(
                    STAGE_QUARANTINED, reason=failure.reason, task=fingerprint
                )
                plans[key[0]].events.append(event)
                # In-process, injection-free, bounded by the current
                # incumbent: the ladder always terminates here.
                plans[key[0]].run_in_process(task, socs)
            resurrect_reason = failure.reason

    def _stream_round(
        self,
        pool: Any,
        plans: Sequence[_Plan],
        processes: int,
        chunksize: int,
        attempts: Dict[_TaskKey, int],
        journal: _Journal,
    ) -> Tuple[Optional[_RoundFailure], float]:
        """One dispatch round: stream pending tasks, absorb replies.

        A sliding backpressure window (a plain semaphore between the
        result loop and the task generator, which runs in the pool's
        feeder thread) keeps enough tasks in flight to saturate the
        workers while leaving later grid tasks undispatched long enough to
        pick up tightened incumbent limits and skip decisions.  On fork
        pools the shared incumbent board supplements this: tasks read
        their plan's freshest incumbent when they *start*, so pruning
        stays tight even for tasks dispatched early in large chunks.

        Returns ``(None, retry_delay)`` when the round ran to completion
        (``retry_delay > 0`` means retryable task failures were journalled
        and their tasks left unacknowledged for the next round), or a
        :class:`_RoundFailure` capturing a stalled/broken pool with the
        unacknowledged suspects.  Retry-exhausted task errors re-raise the
        task's own exception.
        """
        board = self._board
        slot = 0
        for plan in plans:
            if isinstance(plan, _GridPlan):
                if board is not None and slot < _BOARD_SLOTS:
                    plan.slot = slot
                    # Re-seed across rounds: a resurrected pool's fresh
                    # board starts from the incumbents already absorbed.
                    board[slot] = plan.state.limit() or 0
                    slot += 1
                else:
                    plan.slot = -1
        window = max(processes * self._window_factor * chunksize, 2 * chunksize)
        permits = threading.Semaphore(window)
        abort = threading.Event()
        lock = threading.Lock()
        inflight: Dict[_TaskKey, _Task] = {}

        def stamp(task: _Task) -> _Task:
            key = _task_key(task)
            with lock:
                attempt = attempts.get(key, 0) + 1
                attempts[key] = attempt
                stamped = replace(task, attempt=attempt)
                inflight[key] = stamped
            return stamped

        def stream() -> Iterator[_Task]:
            for job_index, plan in enumerate(plans):
                tasks = plan.pending_tasks(job_index)
                while True:
                    # Take the permit *before* the next task is built: the
                    # plan's pending iterator is lazy, so a task created
                    # after blocking carries the freshest incumbent limit
                    # and skip decision.
                    permits.acquire()
                    if abort.is_set():
                        return
                    task = next(tasks, None)
                    if task is None:
                        permits.release()
                        break
                    yield stamp(task)

        def chunked() -> Iterator[Tuple[_Task, ...]]:
            batch: List[_Task] = []
            for task in stream():
                batch.append(task)
                if len(batch) >= chunksize:
                    yield tuple(batch)
                    batch = []
            if batch:
                yield tuple(batch)

        retry_delay = 0.0
        iterator = pool.imap_unordered(_execute_chunk, chunked(), chunksize=1)
        try:
            while True:
                token = active_cancel_token()
                if token is not None and token.cancelled():
                    # Cooperative cancellation checkpoint (service layer):
                    # journal the abandonment, then raise -- _supervise's
                    # escalation path tears the pool down, dropping every
                    # in-flight task with it.
                    reason = token.reason()
                    journal.failure(kind="cancelled", action="raise", error=reason)
                    raise CancelledSolve(reason)
                try:
                    if self._task_deadline is not None:
                        replies = iterator.next(timeout=self._task_deadline)
                    else:
                        replies = next(iterator)
                except StopIteration:
                    return None, retry_delay
                except multiprocessing.TimeoutError:
                    with lock:
                        suspects = dict(inflight)
                    return (
                        _RoundFailure(
                            kind="pool-stall",
                            reason="stalled",
                            error=(
                                f"no task reply within {self._task_deadline:.6g}s; "
                                f"{len(suspects)} task(s) unacknowledged"
                            ),
                            suspects=suspects,
                        ),
                        0.0,
                    )
                except _POOL_DEATH_ERRORS as error:
                    with lock:
                        suspects = dict(inflight)
                    return (
                        _RoundFailure(
                            kind="pool-death",
                            reason="pool-death",
                            error=format_error(error),
                            suspects=suspects,
                        ),
                        0.0,
                    )
                for reply in replies:
                    job_index, run_index, payload, wall = reply
                    permits.release()
                    key = (job_index, run_index if run_index is not None else -1)
                    with lock:
                        inflight.pop(key, None)
                    plan = plans[job_index]
                    if isinstance(payload, _TaskFailure):
                        if payload.attempt <= self._max_task_retries:
                            # Leave the task unacknowledged: the next round
                            # re-dispatches it with a bumped attempt number.
                            journal.retries += 1
                            journal.failure(
                                kind="task-error",
                                action="retry",
                                error=payload.error,
                                task=payload.fingerprint,
                                attempt=payload.attempt,
                            )
                            event = journal.event(
                                STAGE_PARALLEL,
                                reason="retried",
                                task=payload.fingerprint,
                            )
                            plan.events.append(event)
                            retry_delay = max(
                                retry_delay,
                                backoff_delay(
                                    payload.fingerprint,
                                    payload.attempt,
                                    self._retry_backoff,
                                ),
                            )
                            continue
                        journal.failure(
                            kind="task-error",
                            action="raise",
                            error=payload.error,
                            task=payload.fingerprint,
                            attempt=payload.attempt,
                        )
                        if payload.exception is not None:
                            raise payload.exception
                        raise EngineError(
                            f"task {payload.fingerprint} failed after "
                            f"{payload.attempt} attempt(s): {payload.error}"
                        )
                    if isinstance(payload, _BoardAbort):
                        # A mid-run board abort: the run provably could
                        # not beat an already-completed incumbent, so it
                        # is acknowledged exactly like a pruned run.
                        journal.board_aborts += 1
                        payload = None
                    plan.absorb(run_index, payload, wall)
                    if isinstance(plan, _GridPlan) and plan.slot >= 0 and board is not None:
                        limit = plan.state.limit()
                        if limit is not None:
                            board[plan.slot] = limit
        finally:
            # Unblock the feeder thread (it may be parked on the
            # semaphore) whatever way the round ended.
            abort.set()
            for _ in range(window + 1):
                permits.release()

    # -- in-process execution (serial drain) ----------------------------
    @staticmethod
    def _drain_serial(plans: Sequence[_Plan], socs: Dict[str, Soc]) -> None:
        """Run every pending task in-process, in deterministic plan order.

        Injection-free (the fault plan lives only in pool workers); a grid
        run is bounded by its plan's *current* incumbent -- fresher than
        any dispatch-time limit, and pruning is monotone, so the winner is
        unaffected.
        """
        for job_index, plan in enumerate(plans):
            for task in plan.pending_tasks(job_index):
                plan.run_in_process(task, socs)

    # -- entry points ---------------------------------------------------
    def run_jobs(
        self,
        jobs: Iterable[ScheduleJob],
        context: EngineContext,
        workers: int = 0,
        chunksize: Optional[int] = None,
    ) -> SweepResults:
        """Execute a job list on the flat queue; results in job order.

        Semantics (and results, bit for bit) match the historical
        two-layer engine for every worker count; see
        :func:`repro.engine.runner.run_jobs` for the public contract.
        """
        ordered: List[ScheduleJob] = list(jobs)
        if workers < 0:
            raise EngineError(f"workers must be non-negative, got {workers}")
        if not ordered:
            return SweepResults(())
        indexes = [job.index for job in ordered]
        if len(set(indexes)) != len(indexes):
            raise EngineError("job indexes must be unique within one sweep")
        for job in ordered:
            context.resolve(job)  # fail fast on dangling references

        pairs = {(job.soc, job.config.max_core_width) for job in ordered}
        if int(workers) <= 1:
            return self._run_serial(ordered, context, pairs)

        session = get_default_session()
        # Adaptive granularity: explode best jobs into grid-run tasks only
        # when job-level parallelism cannot fill the pool on its own.
        # With plenty of jobs, whole-job dispatch keeps the per-task IPC
        # minimal and each job's internal pruning maximally tight; with
        # few jobs (the Table 1 shape: a handful of best-over-grid cells),
        # decomposition is what creates the parallelism and shrinks
        # stragglers.  Either granularity yields bit-identical results.
        decompose = len(ordered) < 2 * int(workers)
        plans = [
            self._plan(job, context, session)
            if decompose
            else _JobPlan(job, context.resolve(job)[1])
            for job in ordered
        ]
        total_tasks = sum(plan.task_count for plan in plans)
        processes = min(int(workers), total_tasks)
        if processes <= 1:
            return self._run_serial(ordered, context, pairs)
        if chunksize is None:
            # Grid-run tasks are small (often sub-millisecond on compact
            # SOCs), so chunk them to amortise IPC -- the shared incumbent
            # board keeps pruning tight despite the coarser dispatch --
            # but cap the chunk so heterogeneous tails still spread.
            chunksize = _resolve_chunksize(total_tasks, processes)
        stats = self._dispatch(
            plans, dict(context.socs), pairs, processes, chunksize, "flat executor"
        )
        return SweepResults(tuple(plan.finish() for plan in plans), stats=stats)

    def run_grid_runs(
        self, state: GridSweepState, workers: int
    ) -> Tuple[RecoveryEvent, ...]:
        """Fan one best-over-grid sweep out over the shared flat queue.

        The direct entry point for :func:`repro.core.grid_sweep.run_grid_sweep`
        (a ``Session.solve`` of the ``best`` solver with ``workers > 1``),
        so standalone best solves and engine sweeps share one pool.  The
        replies are absorbed into ``state``; the caller builds the outcome
        from it.  Returns the run's recovery ladder.  Nothing runs (and no
        events come back) when the executor declines to parallelise (too
        few runs per worker); pool failures are recovered *internally* --
        resurrection, quarantine or serial drain -- and leave ``state``
        settled, with the path taken reported through the events.
        """
        processes = min(int(workers), len(state.runs))
        if processes <= 1:
            return ()
        soc = state.soc
        stats = self._dispatch(
            [_GridPlan(None, state, soc.name)],
            {soc.name: soc},
            {(soc.name, state.config.max_core_width)},
            processes,
            _resolve_chunksize(len(state.runs), processes),
            "grid sweep",
        )
        return stats.recovery_events

    def _dispatch(
        self,
        plans: Sequence[_Plan],
        socs: Dict[str, Soc],
        pairs: Set[Tuple[str, int]],
        processes: int,
        chunksize: int,
        reason: str,
    ) -> ExecutorStats:
        """Supervise ``plans`` on the pool and record the run's stats."""
        if self._fault_plan is not None:
            # Chaos runs pin chunksize to 1: a lost chunk implicates only
            # the task that actually broke the pool, keeping quarantine
            # attribution (and the tests asserting it) exact.
            chunksize = 1
        journal = _Journal()
        try:
            self._supervise(
                plans, socs, pairs, processes, max(1, int(chunksize)), journal, reason
            )
        finally:
            self._last_failures = tuple(journal.failures)
            self._last_events = tuple(journal.events)
        stats = ExecutorStats(
            jobs=len(plans),
            decomposed_jobs=sum(isinstance(plan, _GridPlan) for plan in plans),
            tasks=sum(plan.task_count for plan in plans),
            workers=processes if journal.pools_created else 0,
            retries=journal.retries,
            resurrections=journal.resurrections,
            quarantined=journal.quarantined,
            board_aborts=journal.board_aborts,
            recovery_events=tuple(journal.events),
            failures=tuple(journal.failures),
        )
        self._last_stats = stats
        return stats

    # -- serial path ----------------------------------------------------
    def _run_serial(
        self,
        jobs: Sequence[ScheduleJob],
        context: EngineContext,
        pairs: Set[Tuple[str, int]],
    ) -> SweepResults:
        """The requested-serial path (``workers <= 1``): no pool, no journal."""
        prime_context_caches(context, pairs)
        results = tuple(execute_job(job, context) for job in jobs)
        stats = ExecutorStats(
            jobs=len(jobs),
            decomposed_jobs=0,
            tasks=len(jobs),
            workers=0,
        )
        return SweepResults(results, stats=stats)


# ----------------------------------------------------------------------
# Process-wide default executor
# ----------------------------------------------------------------------
_DEFAULT_EXECUTOR: Optional[FlatExecutor] = None


def get_default_executor() -> FlatExecutor:
    """The process-wide executor (created on first use, closed at exit).

    The sweep engine's :func:`~repro.engine.runner.run_jobs` and the
    ``best`` solver's grid sweep both dispatch through this executor, so
    one warm pool serves every layer of a session.
    """
    global _DEFAULT_EXECUTOR
    if _DEFAULT_EXECUTOR is None:
        _DEFAULT_EXECUTOR = FlatExecutor()
        atexit.register(close_default_executor)
    return _DEFAULT_EXECUTOR


def close_default_executor() -> None:
    """Tear down the process-wide executor's pool (idempotent)."""
    if _DEFAULT_EXECUTOR is not None:
        _DEFAULT_EXECUTOR.close()


@contextlib.contextmanager
def use_executor(executor: FlatExecutor) -> Iterator[FlatExecutor]:
    """Temporarily install ``executor`` as the process-wide default.

    The previous default (if any) keeps its pool and is restored on exit;
    the installed executor's pool is closed.  This is how the chaos
    harness (``repro chaos``, :mod:`repro.engine.faults`) routes a whole
    solve -- grid fan-out included -- through an executor armed with a
    :class:`~repro.engine.faults.FaultPlan` and a tight task deadline
    without disturbing the session's warm default pool.

    The restore runs in a ``finally`` *before* the close, so the previous
    default comes back even when the body raises mid-dispatch and even if
    the installed executor's teardown were to misbehave (``close()`` is
    itself exception-safe); a failed solve can never leave the process
    default pointing at the temporary executor.
    """
    global _DEFAULT_EXECUTOR
    previous = _DEFAULT_EXECUTOR
    _DEFAULT_EXECUTOR = executor
    try:
        yield executor
    finally:
        _DEFAULT_EXECUTOR = previous
        executor.close()
