"""The paper's primary contribution: wrapper/TAM co-optimization, constraint-
driven test scheduling and tester data volume reduction.

* :mod:`~repro.core.rectangles` -- Pareto-optimal rectangle sets per core
  (the input to the generalized rectangle-packing problem ``P_rp``).
* :mod:`~repro.core.scheduler` -- the ``TAM_schedule_optimizer`` heuristic
  (paper Figures 4-8) solving Problems 1 and 2: flexible-width TAM
  assignment, precedence/concurrency/power constraints and selective
  preemption.
* :mod:`~repro.core.grid_sweep` -- the deduplicated, pruned, optionally
  parallel best-over-grid sweep behind the ``best`` solver.
* :mod:`~repro.core.lower_bounds` -- the testing-time lower bound used in
  Table 1.
* :mod:`~repro.core.data_volume` -- tester data volume, the normalized cost
  function ``C`` and effective TAM width selection (Problem 3).
"""

from repro.core.rectangles import Rectangle, RectangleSet, build_rectangle_sets
from repro.core.scheduler import (
    MakespanLimitExceeded,
    SchedulerConfig,
    SchedulerError,
    run_paper_scheduler,
)
from repro.core.grid_sweep import (
    GridPoint,
    GridSweepOutcome,
    run_best_schedule_reference,
    run_grid_sweep,
)
from repro.core.lower_bounds import lower_bound, area_lower_bound, bottleneck_lower_bound
from repro.core.data_volume import (
    CostPoint,
    TamSweep,
    cost_curve,
    effective_width,
    sweep_tam_widths,
    tester_data_volume,
)

__all__ = [
    "Rectangle",
    "RectangleSet",
    "build_rectangle_sets",
    "SchedulerConfig",
    "SchedulerError",
    "MakespanLimitExceeded",
    "run_paper_scheduler",
    "GridPoint",
    "GridSweepOutcome",
    "run_grid_sweep",
    "run_best_schedule_reference",
    "lower_bound",
    "area_lower_bound",
    "bottleneck_lower_bound",
    "TamSweep",
    "CostPoint",
    "sweep_tam_widths",
    "tester_data_volume",
    "cost_curve",
    "effective_width",
]
