"""The built-in solvers: every algorithm of the paper's evaluation, registered.

=============  ==============================================================
``paper``      The ``TAM_schedule_optimizer`` heuristic (Figures 4-8):
               flexible-width rectangle packing with constraint-driven,
               selectively preemptive scheduling.
``best``       The paper's experimental protocol: the ``paper`` solver over
               a (``percent``, ``delta``, ``slack``) grid, keeping the best.
``fixed-width``  Fixed-width TAM buses (the architecture style of [12, 13]).
``shelf``      Level-oriented next-fit-decreasing shelf packing [8].
``exhaustive`` Exact left-justified permutation search for tiny SOCs.
``lower-bound``  The Table 1 lower bound (max of area and bottleneck
               bounds); produces no schedule, only the bound.
=============  ==============================================================

Each solver draws its Pareto rectangle sets from the owning session's
shared cache with exactly the ``max_width`` its direct ``run_*`` entry point
uses, so registry results are identical to calling that function.
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines.exact import run_exhaustive
from repro.baselines.fixed_width import run_fixed_width
from repro.baselines.shelf import run_shelf
from repro.core.grid_sweep import (
    DEFAULT_DELTAS,
    DEFAULT_PERCENTS,
    DEFAULT_SLACKS,
    run_grid_sweep,
)
from repro.core.lower_bounds import (
    area_lower_bound,
    bottleneck_lower_bound,
)
from repro.core.scheduler import run_paper_scheduler
from repro.solvers.base import Solver, SolverCapabilities
from repro.solvers.registry import register_solver
from repro.solvers.request import ScheduleRequest, ScheduleResult, SolverError
from repro.wrapper.pareto import DEFAULT_MAX_WIDTH

# The default heuristic grid of the "best" solver (the paper's protocol).
BEST_PERCENTS: Tuple[float, ...] = DEFAULT_PERCENTS
BEST_DELTAS: Tuple[int, ...] = DEFAULT_DELTAS
BEST_SLACKS: Tuple[int, ...] = DEFAULT_SLACKS


@register_solver(
    "paper",
    capabilities=SolverCapabilities(
        description=(
            "The paper's TAM_schedule_optimizer: flexible-width rectangle "
            "packing with constraint-driven, selectively preemptive scheduling"
        ),
        supports_constraints=True,
        supports_preemption=True,
        supports_power=True,
    ),
)
class PaperSolver(Solver):
    """One run of ``TAM_schedule_optimizer`` at the request's config."""

    def solve(self, request: ScheduleRequest) -> ScheduleResult:
        self.options(request)  # the paper solver takes no extra options
        sets = self.rectangle_sets(request.soc, request.config.max_core_width)
        schedule = run_paper_scheduler(
            request.soc,
            request.total_width,
            constraints=request.constraints,
            config=request.config,
            rectangle_sets=sets,
        )
        return self.schedule_result(request, schedule)


@register_solver(
    "best",
    capabilities=SolverCapabilities(
        description=(
            "The paper's experimental protocol: the paper solver over a "
            "(percent, delta, slack) grid, keeping the best schedule"
        ),
        supports_constraints=True,
        supports_preemption=True,
        supports_power=True,
    ),
)
class BestSolver(Solver):
    """Best paper-solver schedule over a heuristic-parameter grid.

    Runs the deduplicated, pruned grid sweep of :mod:`repro.core.grid_sweep`
    in the calling process and records the winning grid point, the dedup
    statistics and the Table 1 lower bound in the result metadata.

    Options: ``percents``, ``deltas``, ``slacks`` (sequences overriding the
    default grid) and ``workers``, a non-negative int with no effect that
    ``perfbench``'s ``warm-s1000-w2`` workload still sends.
    """

    def solve(self, request: ScheduleRequest) -> ScheduleResult:
        options = self.options(
            request,
            percents=BEST_PERCENTS,
            deltas=BEST_DELTAS,
            slacks=BEST_SLACKS,
            workers=None,
        )
        workers = options["workers"]
        if workers is not None and int(workers) < 0:
            raise SolverError(f"workers must be non-negative, got {workers}")
        sets = self.rectangle_sets(request.soc, request.config.max_core_width)
        outcome = run_grid_sweep(
            request.soc,
            request.total_width,
            constraints=request.constraints,
            percents=tuple(options["percents"]),
            deltas=tuple(options["deltas"]),
            slacks=tuple(options["slacks"]),
            config=request.config,
            rectangle_sets=sets,
        )
        return self.schedule_result(request, outcome.schedule, metadata=outcome.metadata())


@register_solver(
    "fixed-width",
    capabilities=SolverCapabilities(
        description=(
            "Fixed-width TAM baseline: partition the TAM into buses, test "
            "the cores on each bus sequentially (architecture of [12, 13])"
        ),
    ),
)
class FixedWidthSolver(Solver):
    """Best fixed-width bus architecture.

    Options: ``max_buses`` (default 3) and ``max_core_width`` (default 64,
    independent of the request config, matching :func:`run_fixed_width`).
    """

    def solve(self, request: ScheduleRequest) -> ScheduleResult:
        options = self.options(
            request, max_buses=3, max_core_width=DEFAULT_MAX_WIDTH
        )
        max_core_width = int(options["max_core_width"])
        sets = self.rectangle_sets(request.soc, max_core_width)
        result = run_fixed_width(
            request.soc,
            request.total_width,
            max_buses=int(options["max_buses"]),
            max_core_width=max_core_width,
            rectangle_sets=sets,
        )
        return self.schedule_result(
            request,
            result.schedule,
            metadata={
                "bus_widths": list(result.bus_widths),
                "assignment": dict(result.assignment),
            },
        )


@register_solver(
    "shelf",
    capabilities=SolverCapabilities(
        description=(
            "Level-oriented (shelf) packing baseline: next-fit-decreasing "
            "over one preferred-width rectangle per core [8]"
        ),
    ),
)
class ShelfSolver(Solver):
    """Next-fit-decreasing shelf packing at the request's preferred widths."""

    def solve(self, request: ScheduleRequest) -> ScheduleResult:
        self.options(request)  # the shelf packer takes no extra options
        sets = self.rectangle_sets(request.soc, request.config.max_core_width)
        schedule = run_shelf(
            request.soc,
            request.total_width,
            config=request.config,
            rectangle_sets=sets,
        )
        return self.schedule_result(request, schedule)


@register_solver(
    "exhaustive",
    capabilities=SolverCapabilities(
        description=(
            "Exhaustive reference packer: best left-justified permutation "
            "schedule over all Pareto width choices (tiny SOCs only)"
        ),
        exact=True,
    ),
)
class ExhaustiveSolver(Solver):
    """Exact search for tiny SOCs (raises on more than ``max_cores`` cores).

    Options: ``max_cores`` (default 6) and ``max_widths_per_core``
    (default 8).
    """

    def solve(self, request: ScheduleRequest) -> ScheduleResult:
        options = self.options(request, max_cores=6, max_widths_per_core=8)
        # Build (and cache) the rectangle sets only for SOCs the packer will
        # accept; on refusal run_exhaustive raises its canonical error
        # before any wrapper-design work happens.
        sets = None
        if len(request.soc.cores) <= int(options["max_cores"]):
            sets = self.rectangle_sets(
                request.soc, min(request.config.max_core_width, request.total_width)
            )
        schedule = run_exhaustive(
            request.soc,
            request.total_width,
            constraints=request.constraints,
            config=request.config,
            max_cores=int(options["max_cores"]),
            max_widths_per_core=int(options["max_widths_per_core"]),
            rectangle_sets=sets,
        )
        return self.schedule_result(request, schedule)


@register_solver(
    "lower-bound",
    capabilities=SolverCapabilities(
        description=(
            "The Table 1 lower bound: max of the TAM wire-cycle area bound "
            "and the bottleneck-core bound (no schedule produced)"
        ),
        produces_schedule=False,
    ),
)
class LowerBoundSolver(Solver):
    """Lower bound on the SOC testing time; ``result.schedule`` is ``None``."""

    def solve(self, request: ScheduleRequest) -> ScheduleResult:
        self.options(request)  # the bound takes no extra options
        max_core_width = request.config.max_core_width
        sets = self.rectangle_sets(request.soc, max_core_width)
        area = area_lower_bound(
            request.soc, request.total_width, max_core_width, rectangle_sets=sets
        )
        bottleneck = bottleneck_lower_bound(
            request.soc, request.total_width, max_core_width, rectangle_sets=sets
        )
        return self.bound_result(
            request,
            max(area, bottleneck),
            metadata={"area_bound": area, "bottleneck_bound": bottleneck},
        )
