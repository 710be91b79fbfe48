"""Tests for the unified solver registry (repro.solvers).

Every registered solver runs through ``Session.solve(ScheduleRequest(...))``
with results identical to its direct ``run_*`` entry point, every solver
output validates structurally, and the session's Pareto rectangle cache is
shared across solvers and widths.
"""

import pytest

from repro.baselines.exact import run_exhaustive
from repro.baselines.fixed_width import run_fixed_width
from repro.baselines.shelf import run_shelf
from repro.core.grid_sweep import run_grid_sweep
from repro.core.lower_bounds import lower_bound
from repro.core.scheduler import run_paper_scheduler
from repro.engine.jobs import EngineContext, ScheduleJob
from repro.engine.runner import run_jobs
from repro.schedule.schedule import ScheduleError, ScheduleSegment, TestSchedule
from repro.soc.benchmarks import p93791
from repro.solvers import (
    ScheduleRequest,
    Session,
    Solver,
    SolverCapabilities,
    SolverError,
    SolverRegistry,
    default_registry,
    register_solver,
)

BUILTIN_SOLVERS = ("best", "exhaustive", "fixed-width", "lower-bound", "paper", "shelf")

# Cheap grid for "best"-solver equality tests (the full default grid is the
# paper's 63-point protocol; 4 points are enough to prove the plumbing).
SMALL_GRID = {"percents": (1, 25), "deltas": (0,), "slacks": (3, 6)}


@pytest.fixture(scope="module")
def session():
    """One session for the whole module, so cache sharing is exercised."""
    return Session()


@pytest.fixture(scope="module")
def p93791_soc_module():
    return p93791()


class TestRegistry:
    def test_builtin_solvers_registered(self):
        assert tuple(default_registry().names()) == BUILTIN_SOLVERS

    def test_name_normalization(self):
        registry = default_registry()
        assert "fixed_width" in registry
        assert "FIXED-WIDTH" in registry
        assert registry.info("fixed_width").name == "fixed-width"

    def test_unknown_solver_raises_with_known_names(self, session, small_soc):
        request = ScheduleRequest(soc=small_soc, total_width=8, solver="bogus")
        with pytest.raises(SolverError, match="paper"):
            session.solve(request)

    def test_duplicate_registration_raises(self):
        registry = SolverRegistry()
        caps = SolverCapabilities(description="x")
        registry.register("dup", lambda session: None, caps)
        with pytest.raises(SolverError, match="already registered"):
            registry.register("dup", lambda session: None, caps)
        registry.register("dup", lambda session: None, caps, replace=True)

    def test_capabilities_metadata(self):
        registry = default_registry()
        assert registry.capabilities_of("paper").supports_constraints
        assert registry.capabilities_of("paper").supports_power
        assert not registry.capabilities_of("shelf").supports_constraints
        assert registry.capabilities_of("exhaustive").exact
        assert not registry.capabilities_of("lower-bound").produces_schedule

    def test_custom_solver_registration(self, small_soc):
        """The README's ~10-line example: a custom solver in a local registry."""
        registry = SolverRegistry()

        @register_solver(
            "serial",
            capabilities=SolverCapabilities(description="all cores one after another"),
            registry=registry,
        )
        class SerialSolver(Solver):
            def solve(self, request):
                sets = self.rectangle_sets(request.soc, request.total_width)
                clock, segments = 0, []
                for name, rect in sets.items():
                    width = rect.effective_width(request.total_width)
                    end = clock + rect.time_at(width)
                    segments.append(
                        ScheduleSegment(core=name, start=clock, end=end, width=width)
                    )
                    clock = end
                schedule = TestSchedule(
                    soc_name=request.soc.name,
                    total_width=request.total_width,
                    segments=tuple(segments),
                )
                return self.schedule_result(request, schedule)

        session = Session(registry=registry)
        result = session.solve(
            ScheduleRequest(soc=small_soc, total_width=8, solver="serial")
        )
        assert result.makespan > 0
        result.schedule.validate(small_soc)
        # The default registry is untouched by the local registration.
        assert "serial" not in default_registry()


class TestSolverEquivalence:
    """Registry results must be identical to the direct entry points."""

    @pytest.mark.parametrize("width", (16, 32, 64))
    def test_paper_matches_direct_call_on_d695(self, session, d695_soc, width):
        result = session.solve(ScheduleRequest(soc=d695_soc, total_width=width))
        direct = run_paper_scheduler(d695_soc, width)
        assert result.schedule == direct
        assert result.makespan == direct.makespan

    @pytest.mark.parametrize("width", (16, 32, 64))
    def test_paper_matches_direct_call_on_p93791(
        self, session, p93791_soc_module, width
    ):
        result = session.solve(
            ScheduleRequest(soc=p93791_soc_module, total_width=width)
        )
        direct = run_paper_scheduler(p93791_soc_module, width)
        assert result.schedule == direct

    @pytest.mark.parametrize("width", (16, 32, 64))
    def test_fixed_width_matches_legacy(self, session, d695_soc, width):
        result = session.solve(
            ScheduleRequest(soc=d695_soc, total_width=width, solver="fixed-width")
        )
        direct = run_fixed_width(d695_soc, width)
        assert result.makespan == direct.makespan
        assert result.schedule == direct.schedule
        assert tuple(result.metadata["bus_widths"]) == direct.bus_widths
        assert result.metadata["assignment"] == direct.assignment

    @pytest.mark.parametrize("width", (16, 32, 64))
    def test_fixed_width_matches_legacy_on_p93791(
        self, session, p93791_soc_module, width
    ):
        result = session.solve(
            ScheduleRequest(
                soc=p93791_soc_module, total_width=width, solver="fixed-width"
            )
        )
        direct = run_fixed_width(p93791_soc_module, width)
        assert result.makespan == direct.makespan
        assert result.schedule == direct.schedule

    @pytest.mark.parametrize("width", (16, 32, 64))
    def test_shelf_matches_legacy(self, session, d695_soc, width):
        result = session.solve(
            ScheduleRequest(soc=d695_soc, total_width=width, solver="shelf")
        )
        assert result.schedule == run_shelf(d695_soc, width)

    @pytest.mark.parametrize("width", (16, 32, 64))
    def test_shelf_matches_legacy_on_p93791(self, session, p93791_soc_module, width):
        result = session.solve(
            ScheduleRequest(soc=p93791_soc_module, total_width=width, solver="shelf")
        )
        assert result.schedule == run_shelf(p93791_soc_module, width)

    def test_exhaustive_matches_legacy(self, session, small_soc):
        result = session.solve(
            ScheduleRequest(soc=small_soc, total_width=8, solver="exhaustive")
        )
        assert result.schedule == run_exhaustive(small_soc, 8)

    def test_exhaustive_refuses_large_socs_like_legacy(self, session, d695_soc):
        request = ScheduleRequest(soc=d695_soc, total_width=16, solver="exhaustive")
        # The refusal surfaces as SolverError (which is still a ValueError,
        # like run_exhaustive raises), so callers handle one type.
        with pytest.raises(SolverError, match="limited to"):
            session.solve(request)

    def test_infeasible_constraints_normalised_to_solver_error(self, d695_soc):
        from repro.soc.constraints import ConstraintSet

        session = Session()
        request = ScheduleRequest(
            soc=d695_soc, total_width=32, constraints=ConstraintSet(power_max=0.5)
        )
        # The scheduler's SchedulerError surfaces as SolverError, so callers
        # (and the CLI) handle every solver refusal through one type.
        with pytest.raises(SolverError, match="power budget"):
            session.solve(request)

    def test_mismatched_rectangle_sets_rejected(self, small_soc):
        from repro.core.rectangles import build_rectangle_sets

        wrong = build_rectangle_sets(small_soc, max_width=16)
        with pytest.raises(ValueError, match="max_width"):
            run_paper_scheduler(small_soc, 8, rectangle_sets=wrong)

    def test_best_matches_legacy_grid(self, session, d695_soc):
        result = session.solve(
            ScheduleRequest(
                soc=d695_soc, total_width=32, solver="best", options=SMALL_GRID
            )
        )
        direct = run_grid_sweep(d695_soc, 32, **SMALL_GRID).schedule
        assert result.schedule == direct
        assert result.metadata["grid_points"] == 4

    def test_lower_bound_matches_legacy(self, session, d695_soc):
        result = session.solve(
            ScheduleRequest(soc=d695_soc, total_width=32, solver="lower-bound")
        )
        assert result.makespan == lower_bound(d695_soc, 32)
        assert result.schedule is None
        assert result.is_bound
        assert result.makespan == max(
            result.metadata["area_bound"], result.metadata["bottleneck_bound"]
        )

    def test_paper_with_constraints_matches_legacy(self, small_soc):
        from repro.soc.constraints import ConstraintSet

        constraints = ConstraintSet.for_soc(
            small_soc,
            precedence=[("alpha", "delta")],
            concurrency=[("beta", "gamma")],
            power_max=200.0,
            max_preemptions={"gamma": 2},
        )
        session = Session()
        result = session.solve(
            ScheduleRequest(soc=small_soc, total_width=8, constraints=constraints)
        )
        direct = run_paper_scheduler(small_soc, 8, constraints=constraints)
        assert result.schedule == direct


class TestSolverOutputsValidate:
    """Satellite: every solver's output passes TestSchedule.validate()."""

    def test_every_schedule_producing_solver_validates(self, small_soc):
        session = Session()
        for name in session.solvers():
            result = session.solve(
                ScheduleRequest(soc=small_soc, total_width=8, solver=name)
            )
            if result.schedule is None:
                continue
            result.schedule.validate(small_soc)  # completeness + structure
            result.schedule.validate()  # zero-argument structural form

    def test_session_rejects_invalid_solver_output(self, small_soc):
        registry = SolverRegistry()

        @register_solver(
            "overbooked",
            capabilities=SolverCapabilities(description="exceeds the TAM"),
            registry=registry,
        )
        class OverbookedSolver(Solver):
            def solve(self, request):
                segments = tuple(
                    ScheduleSegment(
                        core=core.name, start=0, end=10, width=request.total_width
                    )
                    for core in request.soc.cores
                )
                schedule = TestSchedule(
                    soc_name=request.soc.name,
                    total_width=request.total_width,
                    segments=segments,
                )
                return self.schedule_result(request, schedule)

        session = Session(registry=registry)
        with pytest.raises(ScheduleError, match="TAM width exceeded"):
            session.solve(
                ScheduleRequest(soc=small_soc, total_width=4, solver="overbooked")
            )

    def test_validate_zero_arg_catches_overlap(self):
        schedule = TestSchedule(
            soc_name="x",
            total_width=4,
            segments=(
                ScheduleSegment(core="a", start=0, end=10, width=3),
                ScheduleSegment(core="b", start=5, end=15, width=3),
            ),
        )
        with pytest.raises(ScheduleError, match="TAM width exceeded"):
            schedule.validate()


class TestDirectEntryPoints:
    """Each solver's ``Session.solve`` result equals its direct ``run_*`` call."""

    def test_paper_matches_run_paper_scheduler(self, d695_soc):
        result = Session().solve(ScheduleRequest(soc=d695_soc, total_width=32))
        assert result.schedule == run_paper_scheduler(d695_soc, 32)

    def test_best_matches_run_grid_sweep(self, d695_soc):
        result = Session().solve(
            ScheduleRequest(
                soc=d695_soc, total_width=16, solver="best", options=SMALL_GRID
            )
        )
        assert result.schedule == run_grid_sweep(d695_soc, 16, **SMALL_GRID).schedule

    def test_fixed_width_matches_run_fixed_width(self, d695_soc):
        result = Session().solve(
            ScheduleRequest(soc=d695_soc, total_width=32, solver="fixed-width")
        )
        assert result.schedule == run_fixed_width(d695_soc, 32).schedule

    def test_shelf_matches_run_shelf(self, d695_soc):
        result = Session().solve(
            ScheduleRequest(soc=d695_soc, total_width=32, solver="shelf")
        )
        assert result.schedule == run_shelf(d695_soc, 32)

    def test_exhaustive_matches_run_exhaustive(self, small_soc):
        result = Session().solve(
            ScheduleRequest(soc=small_soc, total_width=8, solver="exhaustive")
        )
        assert result.schedule == run_exhaustive(small_soc, 8)


class TestSessionCache:
    def test_cache_shared_across_solvers_and_widths(self, d695_soc):
        session = Session()
        for solver in ("paper", "shelf", "fixed-width", "lower-bound"):
            for width in (16, 32):
                session.solve(
                    ScheduleRequest(soc=d695_soc, total_width=width, solver=solver)
                )
        info = session.cache_info()
        # All four solvers build their rectangles at max_core_width=64, so
        # one miss fills the cache for everything else.
        assert info.entries == 1
        assert info.misses == 1
        assert info.hits == 7

    def test_clear_cache_resets_statistics(self, d695_soc):
        session = Session()
        session.solve(ScheduleRequest(soc=d695_soc, total_width=16))
        session.clear_cache()
        info = session.cache_info()
        assert (info.hits, info.misses, info.entries) == (0, 0, 0)

    def test_wall_time_is_stamped(self, small_soc):
        session = Session()
        result = session.solve(ScheduleRequest(soc=small_soc, total_width=8))
        assert result.wall_time > 0

    def test_unknown_option_raises(self, session, small_soc):
        request = ScheduleRequest(
            soc=small_soc, total_width=8, solver="shelf", options={"bogus": 1}
        )
        with pytest.raises(SolverError, match="bogus"):
            session.solve(request)


class TestEngineIntegration:
    """Engine jobs run through Session.solve and can name any solver."""

    def test_job_with_shelf_solver(self, small_soc):
        context = EngineContext.for_soc(small_soc)
        jobs = [
            ScheduleJob(index=0, soc=small_soc.name, width=8, solver="shelf"),
            ScheduleJob(index=1, soc=small_soc.name, width=8),
        ]
        results = run_jobs(jobs, context, workers=0)
        assert results[0].schedule == run_shelf(small_soc, 8)
        assert results[1].schedule == run_paper_scheduler(small_soc, 8)

    def test_bound_only_solver_rejected_as_job(self, small_soc):
        from repro.engine.jobs import EngineError

        context = EngineContext.for_soc(small_soc)
        jobs = [ScheduleJob(index=0, soc=small_soc.name, width=8, solver="lower-bound")]
        with pytest.raises(EngineError, match="no schedule"):
            run_jobs(jobs, context, workers=0)

    def test_csv_records_carry_solver_column(self, small_soc):
        context = EngineContext.for_soc(small_soc)
        jobs = [ScheduleJob(index=0, soc=small_soc.name, width=8, solver="shelf")]
        results = run_jobs(jobs, context, workers=0)
        records = results.to_records()
        assert records[0]["solver"] == "shelf"
        assert ",solver," in results.to_csv().splitlines()[0]
