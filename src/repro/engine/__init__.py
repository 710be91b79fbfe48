"""Parallel experiment/sweep engine.

The engine runs lists of independent, picklable jobs (one SOC at one TAM
width through one registry solver), serially or across a
``multiprocessing`` worker pool (with per-worker warm Pareto-curve caches),
and collects the results into typed records with CSV/JSON export.

Layering: ``jobs`` (typed work units) -> ``runner`` / ``executor`` (serial
or pool execution) -> ``results`` (ordered records, export), with ``api``
providing the experiment-shaped entry points the analysis drivers use.
Results are guaranteed identical for every worker count; see
:mod:`repro.engine.executor`.
"""

from repro.engine.api import (
    MODE_NON_PREEMPTIVE,
    MODE_POWER_CONSTRAINED,
    MODE_PREEMPTIVE,
    POWER_BUDGET_FACTOR,
    PREEMPTION_LIMIT,
    SCHEDULER_MODES,
    mode_constraint_sets,
    parallel_tam_sweep,
    parallel_tam_sweep_results,
    power_budget,
    preemption_limits,
)
from repro.engine.executor import (
    FlatExecutor,
    close_default_executor,
    execute_job,
    get_default_executor,
    prime_context_caches,
)
from repro.engine.faults import (
    RECOVERY_LADDER,
    FailureRecord,
    FaultAction,
    FaultPlan,
    FaultPlanError,
    InjectedFault,
    RecoveryEvent,
)
from repro.engine.jobs import EngineContext, EngineError, JobResult, ScheduleJob
from repro.engine.results import ExecutorStats, SweepResults
from repro.engine.runner import run_jobs

__all__ = [
    "ScheduleJob",
    "JobResult",
    "EngineContext",
    "EngineError",
    "SweepResults",
    "ExecutorStats",
    "FailureRecord",
    "FaultAction",
    "FaultPlan",
    "FaultPlanError",
    "InjectedFault",
    "RecoveryEvent",
    "RECOVERY_LADDER",
    "FlatExecutor",
    "get_default_executor",
    "close_default_executor",
    "run_jobs",
    "execute_job",
    "prime_context_caches",
    "parallel_tam_sweep",
    "parallel_tam_sweep_results",
    "mode_constraint_sets",
    "preemption_limits",
    "power_budget",
    "SCHEDULER_MODES",
    "MODE_NON_PREEMPTIVE",
    "MODE_PREEMPTIVE",
    "MODE_POWER_CONSTRAINED",
    "PREEMPTION_LIMIT",
    "POWER_BUDGET_FACTOR",
]
