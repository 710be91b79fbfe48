"""repro: wrapper/TAM co-optimization, constraint-driven test scheduling and
tester data volume reduction for SOCs.

A faithful, self-contained Python reproduction of

    V. Iyengar, K. Chakrabarty, E. J. Marinissen,
    "Wrapper/TAM Co-Optimization, Constraint-Driven Test Scheduling, and
    Tester Data Volume Reduction for SOCs", DAC 2002.

Quick start
-----------
Every scheduling algorithm -- the paper scheduler, the baselines, the
lower bound -- is a *solver* behind one ``solve(ScheduleRequest)`` API:

>>> from repro import ScheduleRequest, Session, d695, lower_bound
>>> session = Session()                       # shares Pareto curves across solves
>>> soc = d695()
>>> result = session.solve(ScheduleRequest(soc=soc, total_width=32))
>>> result.makespan >= lower_bound(soc, 32)
True
>>> shelf = session.solve(
...     ScheduleRequest(soc=soc, total_width=32, solver="shelf"))
>>> result.makespan <= shelf.makespan
True

The public API re-exported here covers the full framework:

* SOC modelling: :class:`Core`, :class:`Soc`, :class:`ConstraintSet`,
  benchmark SOCs (``d695``, ``p22810``, ``p34392``, ``p93791``) and the
  ITC'02-style file format.
* Wrapper design: ``design_wrapper``, ``testing_time``, ``pareto_points``.
* Solver API: ``Session``, ``ScheduleRequest``, ``ScheduleResult``,
  ``SolverRegistry``, ``register_solver``, ``SolverCapabilities`` -- the
  registry front door every scheduler, baseline and sweep goes through
  (``repro solvers`` lists the registered solvers).
* Scheduling: ``SchedulerConfig``, ``TestSchedule``, ``render_gantt``,
  the ``lower_bound`` and ``run_grid_sweep`` (the ``best`` solver's
  deduplicated best-over-grid sweep, with its winning grid point).
* Tester data volume: ``sweep_tam_widths``, ``tester_data_volume``,
  ``effective_width``.
* Experiments: ``run_table1``, ``run_table2``, ``figure1_staircase``,
  ``figure9_curves``.
* Sweep engine: ``ScheduleJob``, ``run_jobs``, ``parallel_tam_sweep`` --
  job lists executed serially or across a ``multiprocessing`` worker pool
  with bit-identical results, every job solved through the solver session.
"""

from repro.soc import (
    ConstraintSet,
    Core,
    Soc,
    SocValidationError,
    ConstraintError,
    SocFormatError,
    d695,
    format_soc,
    generate_soc,
    generate_soc_family,
    get_benchmark,
    list_benchmarks,
    load_soc,
    p22810,
    p34392,
    p93791,
    parse_soc,
    save_soc,
)
from repro.wrapper import (
    WrapperDesign,
    core_wrapper_plan,
    design_wrapper,
    format_soc_wrapper_plans,
    pareto_points,
    preferred_width,
    testing_time,
    testing_time_curve,
    wrapper_plans_for_schedule,
)
from repro.schedule import (
    ScheduleError,
    ScheduleSegment,
    TestSchedule,
    render_gantt,
)
from repro.core import (
    GridPoint,
    GridSweepOutcome,
    Rectangle,
    RectangleSet,
    SchedulerConfig,
    SchedulerError,
    TamSweep,
    build_rectangle_sets,
    cost_curve,
    effective_width,
    lower_bound,
    run_grid_sweep,
    sweep_tam_widths,
    tester_data_volume,
)
from repro.solvers import (
    BaseSolver,
    ScheduleRequest,
    ScheduleResult,
    Session,
    Solver,
    SolverCapabilities,
    SolverError,
    SolverRegistry,
    default_registry,
    get_default_session,
    register_solver,
    solve,
)
from repro.engine import (
    EngineContext,
    EngineError,
    JobResult,
    ScheduleJob,
    SweepResults,
    parallel_tam_sweep,
    run_jobs,
)
from repro.analysis import (
    TesterModel,
    best_multisite_width,
    evaluate_multisite,
    figure1_staircase,
    figure9_curves,
    multisite_curve,
    run_table1,
    run_table2,
    table1_to_text,
    table2_to_text,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # soc
    "Core",
    "Soc",
    "ConstraintSet",
    "SocValidationError",
    "ConstraintError",
    "SocFormatError",
    "parse_soc",
    "format_soc",
    "load_soc",
    "save_soc",
    "d695",
    "p22810",
    "p34392",
    "p93791",
    "get_benchmark",
    "list_benchmarks",
    "generate_soc",
    "generate_soc_family",
    # wrapper
    "WrapperDesign",
    "design_wrapper",
    "testing_time",
    "testing_time_curve",
    "pareto_points",
    "preferred_width",
    "core_wrapper_plan",
    "wrapper_plans_for_schedule",
    "format_soc_wrapper_plans",
    # schedule
    "TestSchedule",
    "ScheduleSegment",
    "ScheduleError",
    "render_gantt",
    # core
    "Rectangle",
    "RectangleSet",
    "build_rectangle_sets",
    "SchedulerConfig",
    "SchedulerError",
    "GridPoint",
    "GridSweepOutcome",
    "run_grid_sweep",
    "lower_bound",
    "TamSweep",
    "sweep_tam_widths",
    "tester_data_volume",
    "cost_curve",
    "effective_width",
    # solver API
    "Session",
    "ScheduleRequest",
    "ScheduleResult",
    "Solver",
    "BaseSolver",
    "SolverCapabilities",
    "SolverError",
    "SolverRegistry",
    "default_registry",
    "register_solver",
    "get_default_session",
    "solve",
    # engine
    "ScheduleJob",
    "JobResult",
    "EngineContext",
    "EngineError",
    "SweepResults",
    "run_jobs",
    "parallel_tam_sweep",
    # analysis
    "run_table1",
    "run_table2",
    "figure1_staircase",
    "figure9_curves",
    "table1_to_text",
    "table2_to_text",
    "TesterModel",
    "evaluate_multisite",
    "best_multisite_width",
    "multisite_curve",
]
