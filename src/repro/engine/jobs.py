"""Typed job and result records for the sweep engine.

A :class:`ScheduleJob` is one independent unit of work: schedule one SOC at
one TAM width with one :class:`~repro.core.scheduler.SchedulerConfig` and one
(optionally named) constraint set.  Jobs reference their SOC and constraints
*by key* into an :class:`EngineContext` rather than embedding them, so that a
thousand-job grid pickles the (potentially large) SOC description once per
worker instead of once per job.

Everything here is a frozen dataclass built from immutable parts, so jobs
and results are picklable (they cross process boundaries) and comparable
(serial and parallel runs of the same grid must produce *equal* results --
the test suite asserts bit-identical schedules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

from repro.core.scheduler import SchedulerConfig
from repro.schedule.schedule import TestSchedule
from repro.soc.constraints import ConstraintSet
from repro.soc.soc import Soc


class EngineError(RuntimeError):
    """Raised when the engine is asked to run an ill-formed sweep."""


@dataclass(frozen=True)
class ScheduleJob:
    """One schedulable grid point.

    Parameters
    ----------
    index:
        Position of this job in its job list; results come back sorted by
        it, so every worker count reports the jobs in the same order.
    soc:
        Key of the SOC in the :class:`EngineContext`.
    width:
        Total SOC TAM width for this run.
    config:
        Scheduler parameters (percent / delta / insertion slack / ...).
    constraints:
        Key of the constraint set in the context, or ``None`` for
        unconstrained non-preemptive scheduling.
    solver:
        Registry name of the solver to run (see :mod:`repro.solvers`);
        defaults to the paper scheduler.  The solver must produce a
        schedule (bound-only solvers cannot be engine jobs).
    options:
        Solver-specific options, as a mapping or ``(name, value)`` pairs
        (normalised to name-sorted pairs so equal option sets compare
        equal); e.g. a trimmed ``percents`` grid for the ``best`` solver.
    group:
        A label carried through to result records and exports (e.g.
        ``(width, mode)`` for a Table 1 cell).
    tags:
        Extra ``(name, value)`` metadata carried through to result records
        (e.g. the scheduler mode or preemption budget of the grid point).
    """

    index: int
    soc: str
    width: int
    config: SchedulerConfig = field(default_factory=SchedulerConfig)
    constraints: Optional[str] = None
    solver: str = "paper"
    options: Tuple[Tuple[str, Any], ...] = ()
    group: Tuple[Any, ...] = ()
    tags: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        for name in ("index", "width"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise EngineError(f"job {name} must be an integer, got {value!r}")
        if self.index < 0:
            raise EngineError(f"job index must be non-negative, got {self.index}")
        if self.width <= 0:
            raise EngineError(f"TAM width must be positive, got {self.width}")
        if not self.solver:
            raise EngineError("a job must name a solver")
        options = self.options
        if isinstance(options, Mapping):
            options = tuple(sorted(options.items()))
        else:
            options = tuple(sorted((str(name), value) for name, value in options))
        object.__setattr__(self, "options", options)
        object.__setattr__(self, "group", tuple(self.group))
        object.__setattr__(
            self, "tags", tuple((str(name), value) for name, value in self.tags)
        )

    def solver_options(self) -> dict:
        """The options pairs as the dict a :class:`ScheduleRequest` takes."""
        return dict(self.options)

    def tag(self, name: str, default: Any = None) -> Any:
        """Look up one tag value by name."""
        for tag_name, value in self.tags:
            if tag_name == name:
                return value
        return default


@dataclass(frozen=True)
class JobResult:
    """The outcome of executing one :class:`ScheduleJob`.

    ``metadata`` carries the solver's result metadata (e.g. the winning
    grid point of a ``best`` sweep); it is deterministic and participates
    in equality.  ``wall_time`` and ``worker`` describe *where and how
    long* the job ran and are excluded from equality so that a serial and
    a parallel run of the same grid compare equal record-for-record.
    """

    job: ScheduleJob
    makespan: int
    data_volume: int
    schedule: TestSchedule
    metadata: Tuple[Tuple[str, Any], ...] = ()
    wall_time: float = field(default=0.0, compare=False)
    worker: str = field(default="serial", compare=False)

    def __post_init__(self) -> None:
        metadata = self.metadata
        if isinstance(metadata, Mapping):
            metadata = tuple(sorted(metadata.items()))
        else:
            metadata = tuple(sorted((str(name), value) for name, value in metadata))
        object.__setattr__(self, "metadata", metadata)


@dataclass(frozen=True)
class EngineContext:
    """Shared, read-only inputs of a sweep: SOCs and named constraint sets.

    The context is shipped to every worker once (via the pool initializer)
    and resolved per job; see the module docstring.
    """

    socs: Mapping[str, Soc]
    constraints: Mapping[str, ConstraintSet] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "socs", dict(self.socs))
        object.__setattr__(self, "constraints", dict(self.constraints))
        if not self.socs:
            raise EngineError("an engine context needs at least one SOC")

    @classmethod
    def for_soc(
        cls, soc: Soc, constraints: Optional[Mapping[str, ConstraintSet]] = None
    ) -> "EngineContext":
        """A context holding a single SOC under its own name."""
        return cls(socs={soc.name: soc}, constraints=constraints or {})

    def resolve(self, job: ScheduleJob) -> Tuple[Soc, Optional[ConstraintSet]]:
        """The SOC and constraint set a job refers to."""
        try:
            soc = self.socs[job.soc]
        except KeyError:
            raise EngineError(
                f"job {job.index} references unknown SOC {job.soc!r}; "
                f"known: {sorted(self.socs)}"
            ) from None
        if job.constraints is None:
            return soc, None
        try:
            return soc, self.constraints[job.constraints]
        except KeyError:
            raise EngineError(
                f"job {job.index} references unknown constraint set "
                f"{job.constraints!r}; known: {sorted(self.constraints)}"
            ) from None
