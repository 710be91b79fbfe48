"""Job execution front door: the flat shared-pool executor, or a serial loop.

Since the flattened executor landed (:mod:`repro.engine.executor`) this
module is the thin public face of job execution: :func:`run_jobs` hands the
job list to the process-wide :class:`~repro.engine.executor.FlatExecutor`,
which decomposes every job into scheduler-run *tasks* (a ``best`` job
explodes into its deduplicated grid runs, any other solver stays one task),
streams them through one persistent worker pool and reassembles the results
deterministically by ``(job index, run key)``.

The executor guarantees that for a fixed job list the *results are
independent of the worker count*: jobs are pure functions of their inputs
(every solver is deterministic), results are returned in job order, and all
aggregation downstream tie-breaks on the job index.  ``workers <= 1`` runs
a deterministic in-process loop.

Jobs are solved through the process-wide solver
:class:`~repro.solvers.session.Session` (see :mod:`repro.solvers`), so the
shared rectangle cache stays warm across every job a worker executes and
any registered schedule-producing solver can be swept by naming it in
:attr:`~repro.engine.jobs.ScheduleJob.solver`.

Faults are handled through an ordered *recovery ladder*
(``parallel -> resurrected -> quarantined -> serial``): failing tasks are
retried with deterministic backoff, a dead pool is resurrected and only the
unacknowledged tasks re-dispatched, a task that keeps killing its pool is
quarantined to an in-process run, and if no pool can be created at all --
sandboxes without working semaphores, platforms without ``fork``/``spawn``
-- the engine degrades to the serial path *observably*: a
:class:`RuntimeWarning` is emitted and the returned
:class:`~repro.engine.results.SweepResults` carry a ``serial`` entry in
``recovery_events`` (hence ``degraded_to_serial=True``).  See
:mod:`repro.engine.faults` for the vocabulary and the deterministic
fault-injection harness.
"""

from __future__ import annotations

from typing import Iterable, Optional

# Re-exported for backward compatibility: these historically lived here.
from repro.core.grid_sweep import preferred_pool_context  # noqa: F401
from repro.engine.executor import (  # noqa: F401
    execute_job,
    get_default_executor,
    prime_context_caches,
)
from repro.engine.jobs import EngineContext, ScheduleJob
from repro.engine.results import SweepResults


def run_jobs(
    jobs: Iterable[ScheduleJob],
    context: EngineContext,
    workers: int = 0,
    chunksize: Optional[int] = None,
) -> SweepResults:
    """Execute a job list and collect the results, in job order.

    Parameters
    ----------
    jobs:
        The jobs to run.  Their ``index`` fields must be unique -- they are
        the deterministic tie-break key for downstream aggregation.
    context:
        Shared SOCs and constraint sets the jobs reference.
    workers:
        ``0`` or ``1`` runs serially in-process; ``n > 1`` dispatches the
        decomposed task list over the process-wide flat executor's
        persistent pool (at most ``min(n, tasks)`` worker processes).
        Results are bit-identical for every value.
    chunksize:
        Tasks handed to a worker per dispatch.  Defaults to roughly a
        dozen chunks per worker, capped at 64 tasks per chunk so a pool
        death never forfeits an unbounded batch; on fork pools the shared
        incumbent board keeps pruning tight despite the chunked dispatch.
    """
    return get_default_executor().run_jobs(
        jobs, context, workers=workers, chunksize=chunksize
    )
