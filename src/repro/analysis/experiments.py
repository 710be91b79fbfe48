"""Drivers that regenerate the paper's tables and figures.

Every public function here corresponds to one experiment of the paper's
evaluation section (see the per-experiment index in DESIGN.md):

* :func:`run_table1`  -- Table 1: lower bound, non-preemptive, preemptive and
  power-constrained testing times per SOC and TAM width.
* :func:`run_table2`  -- Table 2: minimum testing time / data volume and
  effective TAM widths for several values of ``alpha``.
* :func:`figure1_staircase` -- Figure 1: testing time vs. TAM width for one
  core (Core 6 of p93791 in the paper).
* :func:`figure9_curves` -- Figure 9: SOC-level ``T(W)``, ``D(W)`` and the
  cost curves ``C(W)`` for chosen ``alpha`` values.

All drivers run on the sweep engine (:mod:`repro.engine`).  Table 1
submits one ``best`` job per (width, mode) cell, so every cell runs the
``best`` solver's deduplicated, incumbent-pruned, early-exiting grid
sweep -- a fraction of the naive width x mode x (percent, delta, slack)
expansion's scheduler work -- while producing byte-identical rows.  The
flat executor runs each cell as one pool task; results are guaranteed
identical for every ``workers`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.data_volume import TamSweep
from repro.core.grid_sweep import DEFAULT_DELTAS, DEFAULT_PERCENTS, DEFAULT_SLACKS
from repro.core.lower_bounds import lower_bound
from repro.core.scheduler import SchedulerConfig
from repro.engine.api import (
    MODE_NON_PREEMPTIVE,
    MODE_POWER_CONSTRAINED,
    MODE_PREEMPTIVE,
    POWER_BUDGET_FACTOR,
    PREEMPTION_LIMIT,
    SCHEDULER_MODES,
    mode_constraint_sets,
    parallel_tam_sweep,
    power_budget,
    preemption_limits,
)
from repro.engine.jobs import EngineContext, ScheduleJob
from repro.engine.runner import run_jobs
from repro.soc.core import Core
from repro.soc.soc import Soc
from repro.solvers.session import get_default_session
from repro.wrapper.pareto import DEFAULT_MAX_WIDTH, testing_time_curve

__all__ = [
    "TABLE1_WIDTHS",
    "TABLE2_ALPHAS",
    "TABLE2_WIDTHS",
    "PREEMPTION_LIMIT",
    "POWER_BUDGET_FACTOR",
    "Table1Row",
    "Table2Row",
    "Figure9Data",
    "preemption_limits",
    "power_budget",
    "run_table1",
    "run_table2",
    "figure1_staircase",
    "figure9_curves",
]

# The TAM widths Table 1 evaluates for each SOC.
TABLE1_WIDTHS: Dict[str, Tuple[int, ...]] = {
    "d695": (16, 32, 48, 64),
    "p22810": (16, 32, 48, 64),
    "p34392": (16, 24, 28, 32),
    "p93791": (16, 32, 48, 64),
}

# The TAM width range of the Table 2 effective-width study (also the
# width axis of the bench suite's table2_best phase).
TABLE2_WIDTHS: Tuple[int, ...] = tuple(range(8, 65, 2))

# The alpha values Table 2 reports for each SOC.
TABLE2_ALPHAS: Dict[str, Tuple[float, ...]] = {
    "d695": (0.1, 0.3, 0.5),
    "p22810": (0.01, 0.3, 0.5),
    "p34392": (0.2, 0.25, 0.3),
    "p93791": (0.5, 0.95, 0.99),
}


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1."""

    soc: str
    width: int
    lower_bound: int
    non_preemptive: int
    preemptive: int
    power_constrained: int

    @property
    def non_preemptive_ratio(self) -> float:
        """Non-preemptive testing time relative to the lower bound."""
        return self.non_preemptive / self.lower_bound

    @property
    def preemptive_ratio(self) -> float:
        """Preemptive testing time relative to the lower bound."""
        return self.preemptive / self.lower_bound


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2 (one ``alpha`` value for one SOC)."""

    soc: str
    alpha: float
    min_testing_time: int
    width_of_min_time: int
    min_data_volume: int
    width_of_min_volume: int
    min_cost: float
    effective_width: int
    testing_time_at_effective: int
    data_volume_at_effective: int


def table1_jobs(
    soc: Soc,
    widths: Sequence[int],
    percents: Sequence[float] = DEFAULT_PERCENTS,
    deltas: Sequence[int] = DEFAULT_DELTAS,
    slacks: Sequence[int] = DEFAULT_SLACKS,
    preemption_limit: int = PREEMPTION_LIMIT,
    power_factor: float = POWER_BUDGET_FACTOR,
    max_core_width: int = DEFAULT_MAX_WIDTH,
) -> Tuple[List[ScheduleJob], EngineContext]:
    """The Table 1 engine jobs for ``widths`` and the context they run in.

    One ``best`` job per (width, mode), modes in :data:`SCHEDULER_MODES`
    order, indexed from 0; each job's ``group`` is ``(width, mode)``.
    """
    base_config = SchedulerConfig(max_core_width=max_core_width)
    constraints = mode_constraint_sets(
        soc, preemption_limit=preemption_limit, power_factor=power_factor
    )
    options = {
        "percents": tuple(percents),
        "deltas": tuple(deltas),
        "slacks": tuple(slacks),
    }
    jobs = []
    for width in widths:
        for mode in SCHEDULER_MODES:
            jobs.append(
                ScheduleJob(
                    index=len(jobs),
                    soc=soc.name,
                    width=width,
                    config=base_config,
                    constraints=None if mode == MODE_NON_PREEMPTIVE else mode,
                    solver="best",
                    options=options,
                    group=(width, mode),
                    tags=(("mode", mode),),
                )
            )
    return jobs, EngineContext.for_soc(soc, constraints)


def run_table1(
    soc: Soc,
    widths: Optional[Sequence[int]] = None,
    percents: Sequence[float] = DEFAULT_PERCENTS,
    deltas: Sequence[int] = DEFAULT_DELTAS,
    slacks: Sequence[int] = DEFAULT_SLACKS,
    preemption_limit: int = PREEMPTION_LIMIT,
    power_factor: float = POWER_BUDGET_FACTOR,
    max_core_width: int = DEFAULT_MAX_WIDTH,
    workers: int = 0,
) -> List[Table1Row]:
    """Regenerate the Table 1 rows for one SOC.

    For each TAM width the lower bound and three schedules are produced:
    non-preemptive, preemptive, and preemptive + power-constrained, each the
    best over the (``percent``, ``delta``, ``slack``) grid, as the paper
    tabulates the best result over its parameter sweep.  The default grid
    (``DEFAULT_PERCENTS``/``DEFAULT_DELTAS``/``DEFAULT_SLACKS`` of
    :mod:`repro.core.grid_sweep`) is wider than the paper's, which is
    integer ``q`` 1..10 and ``delta`` 0..4 with the slack fixed at 3; pass
    those ranges to run the paper's own grid.

    Each (width, mode) cell is one ``best``-solver job (see
    :func:`table1_jobs`), i.e. one deduplicated grid sweep with incumbent
    pruning and the Table 1 lower-bound early exit, so the protocol runs
    a fraction of the naive grid expansion's scheduler work, serially or
    with the cells spread over ``workers`` processes.  Rows are
    byte-identical for every ``workers`` value: the ``best`` sweep keeps
    the first grid point (percent outer, delta middle, slack inner)
    achieving the minimum makespan.
    """
    if widths is None:
        widths = TABLE1_WIDTHS.get(soc.name, (16, 32, 48, 64))
    jobs, context = table1_jobs(
        soc,
        widths,
        percents=percents,
        deltas=deltas,
        slacks=slacks,
        preemption_limit=preemption_limit,
        power_factor=power_factor,
        max_core_width=max_core_width,
    )
    best = {result.job.group: result for result in run_jobs(jobs, context, workers=workers)}
    # The jobs solved through the default session, so its sets (and their
    # plan) are warm; fresh ones would cost a build per row.
    sets = get_default_session().rectangle_sets(soc, max_core_width)
    rows = []
    for width in widths:
        rows.append(
            Table1Row(
                soc=soc.name,
                width=width,
                lower_bound=lower_bound(
                    soc, width, max_core_width=max_core_width, rectangle_sets=sets
                ),
                non_preemptive=best[(width, MODE_NON_PREEMPTIVE)].makespan,
                preemptive=best[(width, MODE_PREEMPTIVE)].makespan,
                power_constrained=best[(width, MODE_POWER_CONSTRAINED)].makespan,
            )
        )
    return rows


def run_table2(
    soc: Soc,
    alphas: Optional[Sequence[float]] = None,
    widths: Optional[Sequence[int]] = None,
    config: Optional[SchedulerConfig] = None,
    sweep: Optional[TamSweep] = None,
    workers: int = 0,
    solver: str = "paper",
    solver_options: Optional[Dict[str, object]] = None,
) -> Tuple[List[Table2Row], TamSweep]:
    """Regenerate the Table 2 rows for one SOC.

    A TAM-width sweep provides ``T(W)`` and ``D(W)``; for each ``alpha`` the
    effective width minimising the cost function is reported together with
    the testing time and data volume it yields.  The sweep runs on the
    engine (one job per width) when not supplied pre-computed.  ``solver``
    names the registry solver producing each width's schedule -- pass
    ``"best"`` for the paper's full best-over-grid protocol per width,
    executed on the flat executor's shared pool.
    """
    if alphas is None:
        alphas = TABLE2_ALPHAS.get(soc.name, (0.25, 0.5, 0.75))
    if sweep is None:
        if widths is None:
            widths = TABLE2_WIDTHS
        sweep = parallel_tam_sweep(
            soc,
            widths,
            config=config,
            workers=workers,
            solver=solver,
            solver_options=solver_options,
        )
    rows = []
    for alpha in alphas:
        point = sweep.effective_width(alpha)
        rows.append(
            Table2Row(
                soc=soc.name,
                alpha=alpha,
                min_testing_time=sweep.min_testing_time,
                width_of_min_time=sweep.width_of_min_time,
                min_data_volume=sweep.min_data_volume,
                width_of_min_volume=sweep.width_of_min_volume,
                min_cost=point.cost,
                effective_width=point.width,
                testing_time_at_effective=point.testing_time,
                data_volume_at_effective=point.data_volume,
            )
        )
    return rows, sweep


def figure1_staircase(
    core: Core, max_width: int = DEFAULT_MAX_WIDTH
) -> List[Tuple[int, int]]:
    """Figure 1: ``(width, testing time)`` pairs for one core, widths 1..max."""
    curve = testing_time_curve(core, max_width)
    return list(zip(range(1, max_width + 1), curve))


@dataclass(frozen=True)
class Figure9Data:
    """All four panels of Figure 9 for one SOC."""

    sweep: TamSweep
    alphas: Tuple[float, ...]
    cost_curves: Dict[float, List[Tuple[int, float]]]

    @property
    def time_curve(self) -> List[Tuple[int, int]]:
        """Panel (a): testing time vs. TAM width."""
        return list(zip(self.sweep.widths, self.sweep.testing_times))

    @property
    def volume_curve(self) -> List[Tuple[int, int]]:
        """Panel (b): tester data volume vs. TAM width."""
        return list(zip(self.sweep.widths, self.sweep.data_volumes))


def figure9_curves(
    soc: Soc,
    widths: Optional[Sequence[int]] = None,
    alphas: Sequence[float] = (0.5, 0.75),
    config: Optional[SchedulerConfig] = None,
    sweep: Optional[TamSweep] = None,
    workers: int = 0,
) -> Figure9Data:
    """Figure 9: ``T(W)``, ``D(W)`` and ``C(W)`` curves for one SOC."""
    if sweep is None:
        if widths is None:
            widths = tuple(range(4, 81, 2))
        sweep = parallel_tam_sweep(soc, widths, config=config, workers=workers)
    curves = {
        alpha: [(p.width, p.cost) for p in sweep.cost_curve(alpha)] for alpha in alphas
    }
    return Figure9Data(sweep=sweep, alphas=tuple(alphas), cost_curves=curves)
