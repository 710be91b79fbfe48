"""Tests of constraint-driven scheduling: precedence, concurrency, power, BIST."""

import pytest

from repro.core.scheduler import SchedulerConfig, SchedulerError, run_paper_scheduler
from repro.soc.constraints import ConstraintSet
from repro.soc.core import Core
from repro.soc.soc import Soc


@pytest.fixture
def soc():
    cores = (
        Core("mem", inputs=6, outputs=6, patterns=12, scan_chains=(10, 10), power=30.0),
        Core("cpu", inputs=8, outputs=8, patterns=20, scan_chains=(16, 16), power=50.0),
        Core("dsp", inputs=4, outputs=4, patterns=15, scan_chains=(12,), power=40.0),
        Core("io", inputs=10, outputs=6, patterns=8, scan_chains=(), power=10.0),
    )
    return Soc("constrained", cores)


class TestPrecedence:
    def test_single_precedence_respected(self, soc):
        constraints = ConstraintSet.for_soc(soc, precedence=[("mem", "cpu")])
        schedule = run_paper_scheduler(soc, 8, constraints=constraints)
        schedule.validate(soc, constraints)
        mem_end = schedule.core_summary("mem").last_end
        cpu_start = schedule.core_summary("cpu").first_begin
        assert cpu_start >= mem_end

    def test_precedence_chain_respected(self, soc):
        constraints = ConstraintSet.for_soc(
            soc, precedence=[("mem", "cpu"), ("cpu", "dsp"), ("dsp", "io")]
        )
        schedule = run_paper_scheduler(soc, 16, constraints=constraints)
        schedule.validate(soc, constraints)
        order = ["mem", "cpu", "dsp", "io"]
        for before, after in zip(order, order[1:]):
            assert (
                schedule.core_summary(after).first_begin
                >= schedule.core_summary(before).last_end
            )

    def test_precedence_increases_or_keeps_makespan(self, soc):
        free = run_paper_scheduler(soc, 16).makespan
        constrained = run_paper_scheduler(
            soc,
            16,
            constraints=ConstraintSet.for_soc(
                soc, precedence=[("mem", "cpu"), ("cpu", "dsp"), ("dsp", "io")]
            ),
        ).makespan
        assert constrained >= free

    def test_abort_at_first_fail_ordering(self, soc):
        """Memories first, as the paper motivates, expressed as precedence."""
        constraints = ConstraintSet.for_soc(
            soc, precedence=[("mem", "cpu"), ("mem", "dsp"), ("mem", "io")]
        )
        schedule = run_paper_scheduler(soc, 8, constraints=constraints)
        mem_end = schedule.core_summary("mem").last_end
        for other in ("cpu", "dsp", "io"):
            assert schedule.core_summary(other).first_begin >= mem_end


class TestConcurrency:
    def test_concurrency_constraint_respected(self, soc):
        constraints = ConstraintSet.for_soc(soc, concurrency=[("cpu", "dsp")])
        schedule = run_paper_scheduler(soc, 32, constraints=constraints)
        schedule.validate(soc, constraints)

    def test_all_pairs_conflict_serialises_schedule(self, soc):
        pairs = [(a, b) for i, a in enumerate(soc.core_names) for b in soc.core_names[i + 1:]]
        constraints = ConstraintSet.for_soc(soc, concurrency=pairs)
        schedule = run_paper_scheduler(soc, 32, constraints=constraints)
        schedule.validate(soc, constraints)
        # No two tests may overlap, so total time is the sum of individual times.
        summaries = sorted(schedule.summaries(), key=lambda s: s.first_begin)
        for first, second in zip(summaries, summaries[1:]):
            assert second.first_begin >= first.last_end


class TestHierarchyAndBist:
    def test_parent_child_never_overlap(self, hierarchical_soc):
        constraints = ConstraintSet.for_soc(hierarchical_soc)
        schedule = run_paper_scheduler(hierarchical_soc, 12, constraints=constraints)
        schedule.validate(hierarchical_soc, constraints)

    def test_shared_bist_engine_serialises_cores(self, hierarchical_soc):
        # Even without an explicit constraint set, the scheduler must not run
        # two cores sharing a BIST engine at the same time.
        schedule = run_paper_scheduler(hierarchical_soc, 12)
        for seg_a in schedule.segments_for("bist_a"):
            for seg_b in schedule.segments_for("bist_b"):
                assert not seg_a.overlaps(seg_b)


class TestPower:
    def test_power_constraint_respected(self, soc):
        constraints = ConstraintSet.for_soc(soc, power_max=80.0)
        schedule = run_paper_scheduler(soc, 32, constraints=constraints)
        schedule.validate(soc, constraints)
        assert schedule.peak_power(soc) <= 80.0

    def test_tight_power_budget_serialises(self, soc):
        constraints = ConstraintSet.for_soc(soc, power_max=55.0)
        schedule = run_paper_scheduler(soc, 32, constraints=constraints)
        schedule.validate(soc, constraints)
        # Only one of the larger cores can run at a time (50+40 > 55).
        assert schedule.peak_power(soc) <= 55.0

    def test_power_constraint_increases_or_keeps_makespan(self, soc):
        free = run_paper_scheduler(soc, 32).makespan
        tight = run_paper_scheduler(
            soc, 32, constraints=ConstraintSet.for_soc(soc, power_max=55.0)
        ).makespan
        assert tight >= free

    def test_infeasible_power_budget_raises(self, soc):
        constraints = ConstraintSet.for_soc(soc, power_max=45.0)  # cpu needs 50
        with pytest.raises(SchedulerError, match="power"):
            run_paper_scheduler(soc, 32, constraints=constraints)


class TestCombinedConstraints:
    def test_all_constraint_kinds_together(self, soc):
        constraints = ConstraintSet.for_soc(
            soc,
            precedence=[("mem", "cpu")],
            concurrency=[("cpu", "dsp")],
            power_max=90.0,
            max_preemptions={"cpu": 1, "dsp": 1},
        )
        schedule = run_paper_scheduler(soc, 16, constraints=constraints)
        schedule.validate(soc, constraints)

    def test_constraints_for_wrong_soc_rejected(self, soc):
        constraints = ConstraintSet(precedence=[("ghost", "cpu")])
        with pytest.raises(Exception):
            run_paper_scheduler(soc, 16, constraints=constraints)

    def test_strict_priority_resume_mode_valid(self, soc):
        constraints = ConstraintSet.for_soc(soc, default_preemptions=2, power_max=90.0)
        config = SchedulerConfig(strict_priority_resume=True)
        schedule = run_paper_scheduler(soc, 16, constraints=constraints, config=config)
        schedule.validate(soc, constraints)
