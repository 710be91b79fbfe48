"""Shared-pool executor: one persistent pool, one task per job.

The sweep engine's jobs (one SOC at one TAM width through one registry
solver) are independent, so :class:`FlatExecutor` runs each one whole as a
single pool task.  A ``best`` job is one task too: its best-over-grid sweep
(:func:`repro.core.grid_sweep.run_grid_sweep`) always drains in the
process that runs the job, so workers never need a pool of their own and
a single solve never starts one.

* **Dispatch.**  Jobs flow through ``imap_unordered`` behind a sliding
  backpressure window, in parent-side chunks, and the results are
  reassembled in job order -- bit-identical for every worker count.
* **Persistence.**  The pool outlives one call: it is created lazily
  and holds a *SOC universe*, every SOC it has been given by key (constraint
  sets are small and travel inside tasks, so a Table 1 sweep and a Table 2
  sweep over the same SOC share one pool), plus the warmed cache pairs.
  A later ``run_jobs`` call reuses it, warm wrapper-curve and rectangle
  caches included, when the universe already holds the context's SOCs and
  cache pairs at the same worker count.  Otherwise the pool is refreshed
  once into one whose universe is the old one plus the new SOCs, so a
  protocol that moves from SOC to SOC and back starts one pool per new
  SOC, not one per call.  A refresh is cheap under ``fork``: the parent
  primes only the new pairs *before* the fork and the workers inherit
  every warm cache.  :meth:`FlatExecutor.close` tears the pool down and
  forgets its universe, and an ``atexit`` hook closes the process-wide
  default executor.
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
  ``repro chaos`` harness.  Because retry, re-dispatch and quarantine all
  re-execute *pure* jobs and reassembly is keyed on the job index,
  recovered runs remain bit-identical to the fault-free serial reference
  -- the property the chaos tests pin under injected worker kills,
  exceptions, hangs and pool-creation failures
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
import multiprocessing
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.rectangles import soc_plan
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
from repro.solvers.request import ScheduleRequest
from repro.solvers.session import get_default_session

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

#: How many pool deaths a task must be in flight for before it is deemed
#: poisoned and quarantined to the in-process serial path.
_QUARANTINE_STRIKES = 2

#: Watchdog default: a pooled run with no task reply for this long is
#: declared stalled and resurrected.  Generous on purpose -- legitimate
#: jobs finish in seconds, so a stall is pathological long before five
#: minutes -- and overridable per executor or via the environment.
DEFAULT_TASK_DEADLINE = 300.0
ENV_TASK_DEADLINE = "REPRO_TASK_DEADLINE"

#: Bounded-retry defaults: a task exception is retried at most this many
#: times, with deterministic exponential backoff (see
#: :func:`repro.engine.faults.backoff_delay`) between rounds.
DEFAULT_MAX_TASK_RETRIES = 2
DEFAULT_RETRY_BACKOFF = 0.05

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
    job: ScheduleJob, soc: Soc, constraints: Optional[ConstraintSet]
) -> JobResult:
    """``execute_job`` with the context references already resolved."""
    result = get_default_session().solve(
        ScheduleRequest(
            soc=soc,
            total_width=job.width,
            solver=job.solver,
            config=job.config,
            constraints=constraints,
            options=job.solver_options(),
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

# The fault-injection plan, installed only in pool workers: the parent's
# quarantine and serial-drain paths run injection-free by construction, so
# every recovery ladder terminates (a persistently-hanging task can only
# hang a disposable worker, never the supervising process).
_WORKER_FAULTS: Optional[FaultPlan] = None  # repro: fork-local


def _init_worker(
    socs: Dict[str, Soc],
    pairs: Sequence[Tuple[str, int]],
    faults: Optional[FaultPlan] = None,
) -> None:
    """Pool initializer: install the SOC universe, warm the caches.

    ``pairs`` are the pairs the pool's predecessor did not hold.  Under
    ``fork`` the priming is a cache hit (the parent warmed them just
    before creating the pool, and the held pairs were warm already) and
    ``socs`` arrives by inheritance; under ``spawn``/``forkserver`` it is
    pickled through ``initargs`` once per worker, ``pairs`` are built here
    and any held pair on first use.
    """
    global _WORKER_SOCS, _WORKER_FAULTS
    _WORKER_SOCS = dict(socs)
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


def task_fingerprint(task: _JobTask) -> str:
    """The stable, human-greppable identity of one task.

    Fault plans match on substrings of this string and the retry backoff
    is keyed on it, so the format is part of the chaos-harness contract:
    ``job:{soc}:w{width}:{solver}:i{job index}``.
    """
    job = task.job
    return f"job:{job.soc}:w{job.width}:{job.solver}:i{job.index}"


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
#: ``(job_index, payload)``.  The payload is the :class:`JobResult`, or a
#: :class:`_TaskFailure` when the task raised.
_TaskReply = Tuple[int, Any]


def _execute_task(task: _JobTask) -> _TaskReply:
    """Worker entry point: fault-injection hook, payload, failure capture."""
    fingerprint = task_fingerprint(task)
    try:
        if _WORKER_FAULTS is not None:
            apply_task_fault(_WORKER_FAULTS, fingerprint, task.attempt)
        assert _WORKER_SOCS is not None, "worker used before initialization"
        soc = _WORKER_SOCS[task.job.soc]
        return (task.job_index, _solve_job(task.job, soc, task.constraints))
    except (KeyboardInterrupt, SystemExit):
        # Genuinely fatal: let it kill this worker; the parent's watchdog
        # supervises the resulting stall.
        raise
    except Exception as error:
        portable, note = _portable_exception(error)
        text = format_error(error)
        failure = _TaskFailure(
            fingerprint=fingerprint,
            attempt=task.attempt,
            error=f"{text}; {note}" if note else text,
            exception=portable,
        )
        return (task.job_index, failure)


def _execute_chunk(tasks: Tuple[_JobTask, ...]) -> Tuple[_TaskReply, ...]:
    """Worker entry point: run a parent-chunked batch of tasks.

    Chunking happens parent-side rather than through ``imap_unordered``'s
    own ``chunksize``: CPython wraps a chunked ``imap_unordered`` in a
    plain flattening generator, which loses the ``next(timeout=...)`` API
    the watchdog needs.  A worker death mid-chunk loses the whole batch's
    replies; every task in it stays unacknowledged and re-dispatches.
    """
    return tuple(_execute_task(task) for task in tasks)


# ----------------------------------------------------------------------
# Parent-side plans (one per job)
# ----------------------------------------------------------------------
class _JobPlan:
    """One job's parent-side record: its result and the recovery steps it took."""

    __slots__ = ("job", "constraints", "result", "events")

    def __init__(
        self, job: ScheduleJob, constraints: Optional[ConstraintSet]
    ) -> None:
        self.job = job
        self.constraints = constraints
        self.result: Optional[JobResult] = None
        self.events: List[RecoveryEvent] = []

    @property
    def settled(self) -> bool:
        return self.result is not None

    def task(self, job_index: int) -> _JobTask:
        return _JobTask(job_index=job_index, job=self.job, constraints=self.constraints)

    def run_in_process(self, socs: Dict[str, Soc]) -> None:
        self.result = _solve_job(self.job, socs[self.job.soc], self.constraints)

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


# ----------------------------------------------------------------------
# Supervision bookkeeping
# ----------------------------------------------------------------------
class _Journal:
    """Mutable per-run fault journal (parent-side only).

    Accumulates the structured :class:`FailureRecord`\\ s and recovery
    ladder :class:`RecoveryEvent`\\ s that one ``run_jobs`` call produced,
    plus the matching counters; frozen into
    :class:`~repro.engine.results.ExecutorStats` when the run finishes.
    ``pool_rounds`` counts the dispatch rounds a pool ran, whether the
    pool was created for this call or reused warm from an earlier one.
    """

    __slots__ = (
        "failures",
        "events",
        "retries",
        "resurrections",
        "quarantined",
        "pool_rounds",
    )

    def __init__(self) -> None:
        self.failures: List[FailureRecord] = []
        self.events: List[RecoveryEvent] = []
        self.retries = 0
        self.resurrections = 0
        self.quarantined = 0
        self.pool_rounds = 0

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

    ``suspects`` maps the job index of every task that was dispatched but
    unacknowledged when the pool died -- the only tasks whose work could
    have been lost, and therefore the only ones re-dispatched after
    resurrection.
    """

    kind: str  # "pool-stall" | "pool-death"
    reason: str  # recovery-event slug: "stalled" | "pool-death"
    error: str
    suspects: Dict[int, _JobTask]


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
    spread.  Capped (see :data:`_MAX_CHUNKSIZE`) so a pool death never
    forfeits an unbounded batch of replies.
    """
    waves = 12
    return max(1, min(total_tasks // (max(1, processes) * waves), _MAX_CHUNKSIZE))


def preferred_pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap start-up, inherits warm caches) when available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _holds(universe: Dict[str, Soc], key: str, soc: Soc) -> bool:
    """Whether ``universe`` holds ``soc`` under ``key`` (identity first, then equality)."""
    held = universe.get(key)
    return held is not None and (held is soc or held == soc)


def _warn_pool_degrade(detail: str) -> None:
    warnings.warn(
        f"flat executor: no worker pool could be created ({detail}); degrading "
        "to the serial path (results are identical, wall time is not)",
        RuntimeWarning,
        stacklevel=4,
    )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class FlatExecutor:
    """A persistent process pool fed by one flat queue of whole-job tasks.

    One executor owns (at most) one pool.  The pool is created lazily on
    the first parallel dispatch and holds a *SOC universe* (key -> SOC,
    every SOC it has served; constraint sets travel inside tasks, so
    Table 1 and Table 2 sweeps over the same SOC share one pool) and a set
    of warmed ``(SOC, max width)`` cache pairs.  It is reused verbatim
    while the universe holds every SOC and pair of a job list at the same
    process count, and refreshed (close + recreate) once into the union of
    old and new when it does not; a key rebound to an unequal SOC is
    replaced and its pairs dropped.  ``close()`` tears the pool down and
    forgets the universe; the process-wide default executor
    (:func:`get_default_executor`) is closed at exit.
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
        after an explicit close, or the atexit hook firing after one) is a
        pure no-op, and teardown of a pool whose workers are already dead
        or reaped cannot raise out of ``close()`` -- ``terminate``/``join``
        on a half-collected pool during interpreter shutdown is
        best-effort by construction.
        """
        pool, self._pool = self._pool, None
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
        journal: _Journal,
    ) -> Optional[Any]:
        """A pool of ``processes`` workers holding ``socs`` with ``pairs`` warm.

        The live pool is reused when its universe holds every SOC of
        ``socs`` under the same key (an equal SOC counts), ``pairs`` are
        all held and the process count matches.  Otherwise a SOC-universe
        change refreshes the pool once: the new universe is the old one
        plus ``socs`` (a rebound key is replaced and its pairs dropped),
        and only the pairs the old pool did not hold are primed before
        the fork -- the held ones are still warm in this process, so
        workers inherit every cache warm.  On creation failure a
        RuntimeWarning is emitted, a ``pool-creation``
        :class:`FailureRecord` is journalled and ``None`` returned -- the
        supervisor drains the remaining work serially.
        """
        held = self._socs or {}
        if (
            self._pool is not None
            and self._processes == processes
            and pairs <= self._pairs
            and all(_holds(held, key, soc) for key, soc in socs.items())
        ):
            # The process count must match exactly: dispatch fans tasks
            # out over every pool worker, so reusing a larger pool would
            # silently exceed the caller's documented worker cap.
            return self._pool
        universe = dict(held)
        universe.update(socs)
        rebound = {
            key for key in socs if key in held and not _holds(held, key, socs[key])
        }
        kept = {pair for pair in self._pairs if pair[0] not in rebound}
        fresh = pairs - kept
        self.close()
        # A kept pair was primed here before an earlier fork and the
        # default session still holds it, so only the new ones are primed.
        _prime_soc_pairs(universe, fresh)
        if self._fault_plan is not None and self._pool_faults_left > 0:
            # Injected pool-creation failure: consume one budget unit and
            # behave exactly like the real thing (warning included).
            self._pool_faults_left -= 1
            error_text = "InjectedFault: injected pool-creation failure"
            journal.failure(kind="pool-creation", action="serial", error=error_text)
            _warn_pool_degrade(error_text)
            return None
        try:
            pool = preferred_pool_context().Pool(
                processes=processes,
                initializer=_init_worker,
                initargs=(universe, tuple(sorted(fresh)), self._fault_plan),
            )
        except _POOL_CREATION_ERRORS as error:
            journal.failure(
                kind="pool-creation", action="serial", error=format_error(error)
            )
            _warn_pool_degrade(format_error(error))
            return None
        self._pool = pool
        self._socs = universe
        self._processes = processes
        self._pairs = kept | pairs
        return pool

    # -- dispatch -------------------------------------------------------
    def _supervise(
        self,
        plans: Sequence[_JobPlan],
        socs: Dict[str, Soc],
        pairs: Set[Tuple[str, int]],
        processes: int,
        chunksize: int,
        journal: _Journal,
    ) -> None:
        """Drive every plan to settlement, descending the recovery ladder.

        Work proceeds in *rounds*: each round dispatches every pending
        (unacknowledged) task through the pool.  A clean round that leaves
        retryable failures is followed by another round (bounded per-task
        attempts, deterministic backoff); a stalled or broken pool is torn
        down, tasks implicated in ``_QUARANTINE_STRIKES`` pool deaths are
        quarantined to an in-process run, and the pool is resurrected for
        the survivors.  When no pool can be created the remaining tasks
        drain on the serial path.  Every step is journalled; clean runs
        journal nothing, which is what keeps their results and metadata
        bit-identical to the serial reference.
        """
        attempts: Dict[int, int] = {}
        suspect_strikes: Dict[int, int] = {}
        resurrect_reason: Optional[str] = None
        while not all(plan.settled for plan in plans):
            pool = self._ensure_pool(socs, pairs, processes, journal)
            if pool is None:
                event = journal.event(STAGE_SERIAL, reason="pool-creation")
                if journal.pool_rounds:
                    # Mid-run downgrade: jobs that still had pending work
                    # record it.  An *entry* downgrade (no pool ever ran a
                    # round) stays out of job metadata so results match
                    # the serial reference exactly, as they always did.
                    for plan in plans:
                        if not plan.settled:
                            plan.events.append(event)
                for plan in plans:
                    if not plan.settled:
                        # Injection-free: the fault plan lives only in
                        # pool workers.
                        plan.run_in_process(socs)
                return
            if resurrect_reason is not None:
                journal.resurrections += 1
                event = journal.event(STAGE_RESURRECTED, reason=resurrect_reason)
                for plan in plans:
                    if not plan.settled:
                        plan.events.append(event)
                resurrect_reason = None
            journal.pool_rounds += 1
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
                fingerprint = task_fingerprint(failure.suspects[key])
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
                plans[key].events.append(event)
                # In-process and injection-free: the ladder always
                # terminates here.
                plans[key].run_in_process(socs)
            resurrect_reason = failure.reason

    def _stream_round(
        self,
        pool: Any,
        plans: Sequence[_JobPlan],
        processes: int,
        chunksize: int,
        attempts: Dict[int, int],
        journal: _Journal,
    ) -> Tuple[Optional[_RoundFailure], float]:
        """One dispatch round: stream pending tasks, absorb replies.

        A sliding backpressure window (a plain semaphore between the
        result loop and the task generator, which runs in the pool's
        feeder thread) keeps enough tasks in flight to saturate the
        workers while bounding how many are unacknowledged -- and so
        implicated -- when a pool dies.

        Returns ``(None, retry_delay)`` when the round ran to completion
        (``retry_delay > 0`` means retryable task failures were journalled
        and their tasks left unacknowledged for the next round), or a
        :class:`_RoundFailure` capturing a stalled/broken pool with the
        unacknowledged suspects.  Retry-exhausted task errors re-raise the
        task's own exception.
        """
        window = max(processes * self._window_factor * chunksize, 2 * chunksize)
        permits = threading.Semaphore(window)
        abort = threading.Event()
        lock = threading.Lock()
        inflight: Dict[int, _JobTask] = {}

        def stream() -> Iterator[_JobTask]:
            for job_index, plan in enumerate(plans):
                if plan.settled:
                    continue
                permits.acquire()
                if abort.is_set():
                    return
                with lock:
                    attempt = attempts.get(job_index, 0) + 1
                    attempts[job_index] = attempt
                    task = replace(plan.task(job_index), attempt=attempt)
                    inflight[job_index] = task
                yield task

        def chunked() -> Iterator[Tuple[_JobTask, ...]]:
            batch: List[_JobTask] = []
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
                    # Cooperative cancellation checkpoint: journal the
                    # abandonment, then raise -- _supervise's escalation
                    # path tears the pool down, dropping every in-flight
                    # task with it.
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
                for job_index, payload in replies:
                    permits.release()
                    with lock:
                        inflight.pop(job_index, None)
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
                    plan.result = payload
        finally:
            # Unblock the feeder thread (it may be parked on the
            # semaphore) whatever way the round ended.
            abort.set()
            for _ in range(window + 1):
                permits.release()

    # -- entry points ---------------------------------------------------
    def run_jobs(
        self,
        jobs: Iterable[ScheduleJob],
        context: EngineContext,
        workers: int = 0,
        chunksize: Optional[int] = None,
    ) -> SweepResults:
        """Execute a job list, one task per job; results in job order.

        Results are bit-identical for every worker count; see
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
        plans = [_JobPlan(job, context.resolve(job)[1]) for job in ordered]

        pairs = {(job.soc, job.config.max_core_width) for job in ordered}
        processes = min(int(workers), len(plans))
        if processes <= 1:
            return self._run_serial(ordered, context, pairs)
        if self._fault_plan is not None:
            # Chaos runs pin chunksize to 1: a lost chunk implicates only
            # the task that actually broke the pool, keeping quarantine
            # attribution (and the tests asserting it) exact.
            chunksize = 1
        elif chunksize is None:
            chunksize = _resolve_chunksize(len(plans), processes)
        journal = _Journal()
        try:
            self._supervise(
                plans,
                dict(context.socs),
                pairs,
                processes,
                max(1, int(chunksize)),
                journal,
            )
        finally:
            self._last_failures = tuple(journal.failures)
            self._last_events = tuple(journal.events)
        stats = ExecutorStats(
            jobs=len(plans),
            tasks=len(plans),
            workers=processes if journal.pool_rounds else 0,
            retries=journal.retries,
            resurrections=journal.resurrections,
            quarantined=journal.quarantined,
            recovery_events=tuple(journal.events),
            failures=tuple(journal.failures),
        )
        self._last_stats = stats
        return SweepResults(tuple(plan.finish() for plan in plans), stats=stats)

    def run_grid_runs(self, state: Any, workers: int) -> Tuple[RecoveryEvent, ...]:
        """No-op returning ``()``, kept because ``perfbench --trace 1`` patches it by name."""
        return ()

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
        return SweepResults(
            results, stats=ExecutorStats(jobs=len(jobs), tasks=len(jobs), workers=0)
        )


# ----------------------------------------------------------------------
# Process-wide default executor
# ----------------------------------------------------------------------
_DEFAULT_EXECUTOR: Optional[FlatExecutor] = None


def get_default_executor() -> FlatExecutor:
    """The process-wide executor (created on first use, closed at exit).

    The sweep engine's :func:`~repro.engine.runner.run_jobs` dispatches
    through this executor, so one warm pool serves every sweep of a
    session.
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
