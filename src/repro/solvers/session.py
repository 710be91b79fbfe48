"""The :class:`Session` facade: one front door for every solver.

A session owns

* a :class:`~repro.solvers.registry.SolverRegistry` (the process-wide
  default unless one is injected),
* per-session solver instances, and
* a shared **Pareto rectangle cache**: the per-core wrapper-design
  staircases (the dominant per-schedule cost) are computed once per
  ``(SOC, max width)`` and reused by every solver, width and repeat solve.

``Session.solve`` validates the request, dispatches to the named solver,
structurally validates any schedule the solver returns (TAM capacity, no
per-core overlap, every core tested -- plus the full constraint checks for
solvers whose capabilities claim constraint support) and stamps the wall
time.  The module-level :func:`solve` convenience uses a process-wide
default session, which is also what the sweep engine's workers use so their
caches stay warm across jobs.

Every solve runs in the calling process.  Parallelism lives in the sweep
engine's process-wide *flat executor* (:mod:`repro.engine.executor`), which
runs whole solves as pool tasks; ``Session.close`` (or using the session as
a context manager) tears that pool down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.rectangles import RectangleSet, build_rectangle_sets
from repro.core.scheduler import SchedulerError
from repro.soc.soc import Soc
from repro.solvers.base import BaseSolver
from repro.solvers.registry import (
    SolverRegistry,
    default_registry,
    normalize_solver_name,
)
from repro.solvers.request import ScheduleRequest, ScheduleResult, SolverError


@dataclass(frozen=True)
class SessionCacheInfo:
    """Hit/miss statistics of one session's Pareto rectangle cache."""

    hits: int
    misses: int
    entries: int


class Session:
    """A solve context sharing Pareto rectangle sets across solvers and widths.

    Parameters
    ----------
    registry:
        Solver registry to resolve names against; defaults to the
        process-wide registry holding the built-in solvers.
    validate:
        Structurally validate every schedule a solver returns (cheap; on by
        default).  Constraint checks are additionally applied for solvers
        whose capabilities declare constraint support.
    """

    def __init__(
        self,
        registry: Optional[SolverRegistry] = None,
        validate: bool = True,
    ) -> None:
        self._registry = registry if registry is not None else default_registry()
        self._validate = validate
        self._solvers: Dict[str, BaseSolver] = {}
        self._rectangle_cache: Dict[Tuple[Soc, int], Dict[str, RectangleSet]] = {}
        self._hits = 0
        self._misses = 0

    @property
    def registry(self) -> SolverRegistry:
        """The registry this session resolves solver names against."""
        return self._registry

    # ------------------------------------------------------------------
    # Shared Pareto rectangle cache
    # ------------------------------------------------------------------
    def rectangle_sets(self, soc: Soc, max_width: int) -> Dict[str, RectangleSet]:
        """Pareto rectangle sets for ``soc``, memoised per (SOC, max width)."""
        if max_width <= 0:
            raise SolverError("max_width must be positive")
        key = (soc, int(max_width))
        sets = self._rectangle_cache.get(key)
        if sets is None:
            self._misses += 1
            sets = build_rectangle_sets(soc, max_width=int(max_width))
            self._rectangle_cache[key] = sets
        else:
            self._hits += 1
        return sets

    def cache_info(self) -> SessionCacheInfo:
        """Hit/miss statistics of the shared rectangle cache."""
        return SessionCacheInfo(
            hits=self._hits, misses=self._misses, entries=len(self._rectangle_cache)
        )

    def clear_cache(self) -> None:
        """Drop all cached rectangle sets (statistics reset too)."""
        self._rectangle_cache.clear()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Shared-executor lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the *process-wide* flat executor's worker pool.

        The sweep engine's parallel runs dispatch through one shared,
        process-wide executor whose pool persists across calls to keep
        caches warm; that pool is not owned by any single session, so
        closing it here also affects other components using it (their
        next parallel dispatch transparently recreates it).  The session
        itself stays usable -- this is a convenience hook for "I am done
        with parallel work in this process".
        """
        from repro.engine.executor import close_default_executor

        close_default_executor()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solver(self, name: str) -> BaseSolver:
        """The session's instance of the named solver (created on first use)."""
        key = normalize_solver_name(name)
        instance = self._solvers.get(key)
        if instance is None:
            instance = self._registry.create(key, self)
            self._solvers[key] = instance
        return instance

    def solvers(self) -> List[str]:
        """Names of all solvers this session can dispatch to."""
        return self._registry.names()

    def solve(self, request: ScheduleRequest) -> ScheduleResult:
        """Run the request's solver and return its (validated) result."""
        solver = self.solver(request.solver)
        if request.constraints is not None:
            request.constraints.validate_for(request.soc)
        started = time.perf_counter()
        try:
            result = solver.solve(request)
        except SolverError:
            raise
        except (ValueError, SchedulerError) as error:
            # Normalise solver refusals (the exhaustive packer's core limit,
            # the scheduler's infeasible-constraint errors) so callers can
            # handle one exception type.  SolverError subclasses ValueError,
            # so legacy except-clauses keep working.
            raise SolverError(f"solver {solver.name!r}: {error}") from error
        wall_time = time.perf_counter() - started
        if result.schedule is not None and self._validate:
            constraints = (
                request.constraints
                if solver.capabilities.supports_constraints
                else None
            )
            result.schedule.validate(request.soc, constraints=constraints)
        return replace(result, wall_time=wall_time)


# ----------------------------------------------------------------------
# Process-wide default session
# ----------------------------------------------------------------------
# Fork-local by design: each pool worker lazily builds its own default
# session, whose rectangle-set memos are pure derived values (the warm
# shared state ships via the priming protocol instead).
_DEFAULT_SESSION: Optional[Session] = None  # repro: fork-local


def get_default_session() -> Session:
    """The process-wide session (created on first use).

    The sweep engine's serial loop and pool workers solve through this
    session so Pareto rectangle sets stay warm across jobs; user code can
    use it too when managing a session explicitly is overkill.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION


def solve(request: ScheduleRequest) -> ScheduleResult:
    """Solve one request on the process-wide default session."""
    return get_default_session().solve(request)
