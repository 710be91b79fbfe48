"""The solver API's wire format: :class:`ScheduleRequest` / :class:`ScheduleResult`.

Every solver in the registry -- the paper scheduler, the rectangle-packing
baselines, the lower bound -- is driven through the same pair of frozen,
JSON-round-trippable dataclasses:

* a :class:`ScheduleRequest` names the solver and carries everything the
  solve needs (the SOC, the total TAM width, a
  :class:`~repro.core.scheduler.SchedulerConfig`, an optional
  :class:`~repro.soc.constraints.ConstraintSet` and a free-form
  solver-specific ``options`` mapping);
* a :class:`ScheduleResult` carries the makespan, the tester data volume,
  the packed :class:`~repro.schedule.schedule.TestSchedule` (``None`` for
  bound-only solvers) and solver-specific ``metadata``.

Both round-trip through ``to_dict``/``from_dict`` (and ``to_json``/
``from_json``): the SOC travels as its ITC'02-style text form, the config
and constraints as flat dicts.  This is the serialization a future service
layer can put on the wire unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from repro.core.scheduler import SchedulerConfig
from repro.schedule.schedule import TestSchedule
from repro.soc.constraints import ConstraintSet
from repro.soc.itc02 import format_soc, parse_soc
from repro.soc.soc import Soc

DEFAULT_SOLVER = "paper"


class SolverError(ValueError):
    """Raised for ill-formed requests, unknown solvers or bad solver options."""


@dataclass(frozen=True)
class ScheduleRequest:
    """One self-contained scheduling problem, addressed to one solver.

    Parameters
    ----------
    soc:
        The SOC to schedule.
    total_width:
        Total SOC TAM width ``W`` (bin height).
    solver:
        Registry name of the solver to run (``repro solvers`` lists them).
    config:
        Heuristic parameters shared by all solvers that use preferred
        widths; see :class:`~repro.core.scheduler.SchedulerConfig`.
    constraints:
        Precedence/concurrency/power/preemption constraints, or ``None``
        for unconstrained scheduling.  Solvers that do not support
        constraints ignore them (their capability metadata says so).
    options:
        Solver-specific options (e.g. ``max_buses`` for ``fixed-width``,
        ``percents``/``deltas``/``slacks`` for ``best``).  Unknown option
        names raise :class:`SolverError` at solve time.
    """

    soc: Soc
    total_width: int
    solver: str = DEFAULT_SOLVER
    config: SchedulerConfig = field(default_factory=SchedulerConfig)
    constraints: Optional[ConstraintSet] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        width = self.total_width
        if not isinstance(width, int) or isinstance(width, bool):
            raise SolverError(f"total TAM width must be an integer, got {width!r}")
        if width <= 0:
            raise SolverError("total TAM width must be positive")
        if not self.solver:
            raise SolverError("a request must name a solver")
        object.__setattr__(self, "options", dict(self.options))

    # ------------------------------------------------------------------
    # Convenience transforms
    # ------------------------------------------------------------------
    def with_solver(self, solver: str) -> "ScheduleRequest":
        """The same problem addressed to a different solver."""
        return replace(self, solver=solver)

    def with_options(self, **options: Any) -> "ScheduleRequest":
        """A copy with extra/overridden solver options."""
        merged = dict(self.options)
        merged.update(options)
        return replace(self, options=merged)

    def fingerprint(self) -> str:
        """A stable content hash identifying this exact problem + solver.

        SHA-256 over the canonical (sorted-keys, compact-separator) JSON
        form of :meth:`to_dict`: two requests share a fingerprint iff
        they serialise identically.  The service layer keys its dedup
        cache, in-flight coalescing and write-ahead journal on this.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict form (round-trips through :meth:`from_dict`)."""
        return {
            "soc": format_soc(self.soc),
            "total_width": self.total_width,
            "solver": self.solver,
            "config": self.config.to_dict(),
            "constraints": (
                self.constraints.to_dict() if self.constraints is not None else None
            ),
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScheduleRequest":
        """Rebuild a request from :meth:`to_dict` output."""
        constraints = data.get("constraints")
        return cls(
            soc=parse_soc(data["soc"]),
            total_width=data["total_width"],
            solver=str(data.get("solver", DEFAULT_SOLVER)),
            config=SchedulerConfig.from_dict(data.get("config") or {}),
            constraints=(
                ConstraintSet.from_dict(constraints) if constraints is not None else None
            ),
            options=dict(data.get("options") or {}),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise the request to JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleRequest":
        """Rebuild a request from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class ScheduleResult:
    """The outcome of one :meth:`Session.solve <repro.solvers.Session.solve>`.

    ``wall_time`` describes how long the solve took and is excluded from
    equality, so results of repeated identical solves compare equal.
    """

    solver: str
    soc_name: str
    total_width: int
    makespan: int
    data_volume: int
    schedule: Optional[TestSchedule] = None
    metadata: Mapping[str, Any] = field(default_factory=dict)
    wall_time: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def is_bound(self) -> bool:
        """True for bound-only results (no schedule was produced)."""
        return self.schedule is None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict form (round-trips through :meth:`from_dict`)."""
        return {
            "solver": self.solver,
            "soc_name": self.soc_name,
            "total_width": self.total_width,
            "makespan": self.makespan,
            "data_volume": self.data_volume,
            "schedule": self.schedule.to_dict() if self.schedule is not None else None,
            "metadata": dict(self.metadata),
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScheduleResult":
        """Rebuild a result from :meth:`to_dict` output."""
        schedule = data.get("schedule")
        return cls(
            solver=str(data["solver"]),
            soc_name=str(data["soc_name"]),
            total_width=int(data["total_width"]),
            makespan=int(data["makespan"]),
            data_volume=int(data["data_volume"]),
            schedule=TestSchedule.from_dict(schedule) if schedule is not None else None,
            metadata=dict(data.get("metadata") or {}),
            wall_time=float(data.get("wall_time") or 0.0),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise the result to JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleResult":
        """Rebuild a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
