"""Parallel experiment/sweep engine.

The engine turns a declarative parameter grid (benchmark x percent x delta
x TAM width x scheduler mode x preemption budget) into independent,
picklable jobs, executes them serially or across a ``multiprocessing``
worker pool (with per-worker warm Pareto-curve caches), and aggregates the
results into typed records with CSV/JSON export.

Layering: ``grid`` (declarative grids) -> ``jobs`` (typed work units) ->
``runner`` (serial / pool execution) -> ``results`` (aggregation, export),
with ``api`` providing the experiment-shaped entry points the analysis
drivers use.  Results are guaranteed identical for every worker count; see
:mod:`repro.engine.runner`.
"""

from repro.engine.api import (
    MODE_NON_PREEMPTIVE,
    MODE_POWER_CONSTRAINED,
    MODE_PREEMPTIVE,
    POWER_BUDGET_FACTOR,
    PREEMPTION_LIMIT,
    SCHEDULER_MODES,
    best_schedule_grid,
    config_grid,
    expand_config_jobs,
    mode_constraint_sets,
    parallel_tam_sweep,
    parallel_tam_sweep_results,
    power_budget,
    preemption_limits,
)
from repro.engine.executor import (
    FlatExecutor,
    close_default_executor,
    get_default_executor,
    use_executor,
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
from repro.engine.grid import GridError, ParameterGrid
from repro.engine.jobs import EngineContext, EngineError, JobResult, ScheduleJob
from repro.engine.results import ExecutorStats, SweepResults
from repro.engine.runner import execute_job, prime_context_caches, run_jobs

__all__ = [
    "ParameterGrid",
    "GridError",
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
    "use_executor",
    "run_jobs",
    "execute_job",
    "prime_context_caches",
    "best_schedule_grid",
    "parallel_tam_sweep",
    "parallel_tam_sweep_results",
    "config_grid",
    "expand_config_jobs",
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
