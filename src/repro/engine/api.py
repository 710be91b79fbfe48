"""High-level sweep-engine entry points used by the experiment drivers.

These helpers encode the two sweep shapes the paper's evaluation needs:

* :func:`best_schedule_grid` -- the best schedule over a
  (``percent``, ``delta``, ``insertion_slack``) heuristic grid at one TAM
  width, the engine-backed equivalent of
  :func:`repro.core.scheduler.best_schedule`.
* :func:`parallel_tam_sweep` -- ``T(W)`` / ``D(W)`` over a width range, the
  engine-backed equivalent of
  :func:`repro.core.data_volume.sweep_tam_widths`.

Both are bit-compatible with their serial counterparts for any worker
count: the grid expansion order fixes the job indexes, and aggregation
tie-breaks on those indexes.

The *scheduler mode* vocabulary of Table 1 (non-preemptive / preemptive /
power-constrained) also lives here, together with the constraint-set
derivation the paper uses (preemption budgets for the larger cores, power
budget relative to the hottest core test).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.data_volume import TamSweep, build_tam_sweep, normalize_sweep_widths
from repro.core.scheduler import SchedulerConfig
from repro.engine.grid import ParameterGrid
from repro.engine.jobs import EngineContext, ScheduleJob
from repro.engine.results import SweepResults
from repro.engine.runner import run_jobs
from repro.schedule.schedule import TestSchedule
from repro.soc.constraints import ConstraintSet
from repro.soc.soc import Soc

# Scheduler modes of the Table 1 columns.
MODE_NON_PREEMPTIVE = "non_preemptive"
MODE_PREEMPTIVE = "preemptive"
MODE_POWER_CONSTRAINED = "power_constrained"
SCHEDULER_MODES: Tuple[str, ...] = (
    MODE_NON_PREEMPTIVE,
    MODE_PREEMPTIVE,
    MODE_POWER_CONSTRAINED,
)

# Preemption limit used for the "larger cores" in the preemptive experiments.
PREEMPTION_LIMIT = 2

# Power budget = factor * max per-core test power (the paper's P_max is
# defined relative to the per-core power values; see DESIGN.md section 5).
# A factor just above 1.0 reproduces the paper's qualitative behaviour: the
# power constraint barely matters at narrow TAMs (little test concurrency)
# and increasingly dominates as the TAM gets wider.
POWER_BUDGET_FACTOR = 1.1


def preemption_limits(
    soc: Soc, limit: int = PREEMPTION_LIMIT, top_fraction: float = 0.5
) -> Dict[str, int]:
    """Per-core preemption limits: the larger half of the cores get ``limit``.

    The paper sets ``max_preemptions`` to 2 "for the larger cores"; we rank
    cores by total test data volume and give the top ``top_fraction`` of them
    the limit.
    """
    ranked = sorted(soc.cores, key=lambda core: core.total_test_bits, reverse=True)
    count = max(1, int(round(len(ranked) * top_fraction)))
    return {core.name: limit for core in ranked[:count]}


def power_budget(soc: Soc, factor: float = POWER_BUDGET_FACTOR) -> float:
    """The power constraint ``P_max`` used in the power-constrained rows."""
    return factor * soc.max_test_power()


def mode_constraint_sets(
    soc: Soc,
    preemption_limit: int = PREEMPTION_LIMIT,
    power_factor: float = POWER_BUDGET_FACTOR,
    top_fraction: float = 0.5,
) -> Dict[str, ConstraintSet]:
    """The named constraint sets behind the preemptive / power-constrained modes.

    The non-preemptive mode is the absence of constraints and has no entry.
    """
    limits = preemption_limits(soc, limit=preemption_limit, top_fraction=top_fraction)
    preemptive = ConstraintSet.for_soc(soc, max_preemptions=limits)
    return {
        MODE_PREEMPTIVE: preemptive,
        MODE_POWER_CONSTRAINED: preemptive.with_power_max(
            power_budget(soc, power_factor)
        ),
    }


def config_grid(
    percents: Sequence[float] = (1, 5, 10, 25, 40, 60, 75),
    deltas: Sequence[int] = (0, 2, 4),
    slacks: Sequence[int] = (0, 3, 6),
) -> ParameterGrid:
    """The heuristic-parameter grid the paper's protocol sweeps per schedule."""
    return ParameterGrid.of(percent=percents, delta=deltas, insertion_slack=slacks)


def expand_config_jobs(
    soc_key: str,
    width: int,
    grid: ParameterGrid,
    base_config: Optional[SchedulerConfig] = None,
    constraints_key: Optional[str] = None,
    group: Sequence[Any] = (),
    tags: Sequence[Tuple[str, Any]] = (),
    start_index: int = 0,
) -> List[ScheduleJob]:
    """One job per grid point; point values override ``base_config`` fields."""
    base = base_config or SchedulerConfig()
    jobs = []
    for index, point in grid.enumerate_points(start=start_index):
        jobs.append(
            ScheduleJob(
                index=index,
                soc=soc_key,
                width=width,
                config=replace(base, **point),
                constraints=constraints_key,
                group=tuple(group),
                tags=tuple(tags),
            )
        )
    return jobs


def best_schedule_grid(
    soc: Soc,
    total_width: int,
    constraints: Optional[ConstraintSet] = None,
    percents: Sequence[float] = (1, 5, 10, 25, 40, 60, 75),
    deltas: Sequence[int] = (0, 2, 4),
    slacks: Sequence[int] = (0, 3, 6),
    config: Optional[SchedulerConfig] = None,
    workers: int = 0,
) -> TestSchedule:
    """Best schedule over the heuristic grid; engine-backed ``best_schedule``.

    With any ``workers`` value this returns the same schedule as
    :func:`repro.core.scheduler.best_schedule` called with the same
    arguments: the first grid point (in ``percent`` outer, ``delta`` middle,
    ``slack`` inner order) achieving the minimum makespan wins.
    """
    named = {"constraints": constraints} if constraints is not None else {}
    context = EngineContext.for_soc(soc, named)
    jobs = expand_config_jobs(
        soc.name,
        total_width,
        config_grid(percents, deltas, slacks),
        base_config=config,
        constraints_key="constraints" if constraints is not None else None,
        group=(soc.name, total_width),
    )
    results = run_jobs(jobs, context, workers=workers)
    return results.best_for_group((soc.name, total_width)).schedule


def parallel_tam_sweep(
    soc: Soc,
    widths: Sequence[int],
    constraints: Optional[ConstraintSet] = None,
    config: Optional[SchedulerConfig] = None,
    workers: int = 0,
    monotone: bool = True,
    solver: str = "paper",
    solver_options: Optional[Dict[str, Any]] = None,
) -> TamSweep:
    """Schedule the SOC at every width and collect ``T``/``D``; engine-backed.

    Semantics match :func:`repro.core.data_volume.sweep_tam_widths`
    (including the monotone staircase clamp, applied in width order after
    all schedules complete) for every worker count.  ``solver`` may name
    any registered schedule-producing solver (see :mod:`repro.solvers`), so
    the Figure 9 curves can be regenerated for a baseline as easily as for
    the paper scheduler; ``solver_options`` (e.g. a trimmed grid for the
    ``best`` solver) travel with every job.
    """
    sweep, _ = parallel_tam_sweep_results(
        soc,
        widths,
        constraints=constraints,
        config=config,
        workers=workers,
        monotone=monotone,
        solver=solver,
        solver_options=solver_options,
    )
    return sweep


def parallel_tam_sweep_results(
    soc: Soc,
    widths: Sequence[int],
    constraints: Optional[ConstraintSet] = None,
    config: Optional[SchedulerConfig] = None,
    workers: int = 0,
    monotone: bool = True,
    solver: str = "paper",
    solver_options: Optional[Dict[str, Any]] = None,
) -> Tuple[TamSweep, SweepResults]:
    """Like :func:`parallel_tam_sweep`, but also return the raw job results.

    The :class:`~repro.engine.results.SweepResults` carry the per-width
    solver metadata (e.g. the winning grid point of each ``best`` sweep),
    which the reduced :class:`~repro.core.data_volume.TamSweep` cannot.
    """
    ordered = normalize_sweep_widths(widths, monotone)
    named = {"constraints": constraints} if constraints is not None else {}
    context = EngineContext.for_soc(soc, named)
    jobs = [
        ScheduleJob(
            index=index,
            soc=soc.name,
            width=width,
            config=config or SchedulerConfig(),
            constraints="constraints" if constraints is not None else None,
            solver=solver,
            options=tuple(sorted((solver_options or {}).items())),
            group=(soc.name, "tam_sweep"),
        )
        for index, width in enumerate(ordered)
    ]
    results = run_jobs(jobs, context, workers=workers)
    sweep = build_tam_sweep(
        soc.name, ordered, [result.makespan for result in results], monotone
    )
    return sweep, results
