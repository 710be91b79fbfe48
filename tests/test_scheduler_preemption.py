"""Tests of selectively preemptive scheduling (Problem 2)."""

import pytest

from repro.core.grid_sweep import run_grid_sweep
from repro.core.rectangles import build_rectangle_sets
from repro.core.scheduler import SchedulerConfig, run_paper_scheduler
from repro.soc.constraints import ConstraintSet
from repro.soc.core import Core
from repro.soc.soc import Soc


@pytest.fixture
def preemption_soc():
    """An SOC engineered so that preemption is attractive.

    Several short narrow tests plus two long wide tests on a narrow TAM give
    the scheduler an incentive to pause short tests to admit long ones early.
    """
    cores = [
        Core("long_a", inputs=10, outputs=10, patterns=60, scan_chains=(30, 30, 30, 30)),
        Core("long_b", inputs=10, outputs=10, patterns=50, scan_chains=(25, 25, 25, 25)),
    ]
    for index in range(4):
        cores.append(
            Core(f"short_{index}", inputs=4, outputs=4, patterns=10, scan_chains=(12, 12))
        )
    return Soc("preempt", tuple(cores))


class TestPreemptionLimits:
    def test_default_is_non_preemptive(self, preemption_soc):
        schedule = run_paper_scheduler(preemption_soc, 8)
        for core in preemption_soc.core_names:
            assert schedule.preemptions_of(core) == 0

    def test_preemption_limits_respected(self, preemption_soc):
        constraints = ConstraintSet.for_soc(preemption_soc, default_preemptions=2)
        for width in (6, 8, 12):
            schedule = run_paper_scheduler(preemption_soc, width, constraints=constraints)
            schedule.validate(preemption_soc, constraints)
            for core in preemption_soc.core_names:
                assert schedule.preemptions_of(core) <= 2

    def test_per_core_limits_respected(self, preemption_soc):
        constraints = ConstraintSet.for_soc(
            preemption_soc,
            max_preemptions={"short_0": 3, "short_1": 1},
            default_preemptions=0,
        )
        schedule = run_paper_scheduler(preemption_soc, 8, constraints=constraints)
        schedule.validate(preemption_soc, constraints)
        assert schedule.preemptions_of("short_1") <= 1
        for core in ("long_a", "long_b", "short_2", "short_3"):
            assert schedule.preemptions_of(core) == 0

    def test_preempted_core_keeps_its_width(self, preemption_soc):
        """The paper fixes a rectangle's width once packed; resumed pieces reuse it."""
        constraints = ConstraintSet.for_soc(preemption_soc, default_preemptions=3)
        schedule = run_paper_scheduler(preemption_soc, 8, constraints=constraints)
        for core in preemption_soc.core_names:
            widths = {seg.width for seg in schedule.segments_for(core)}
            assert len(widths) == 1


class TestPreemptionBehaviour:
    def test_preemption_adds_scan_overhead(self, preemption_soc):
        """A core preempted k times runs k*(si+so) cycles longer in total."""
        sets = build_rectangle_sets(preemption_soc)
        constraints = ConstraintSet.for_soc(preemption_soc, default_preemptions=3)
        schedule = run_paper_scheduler(preemption_soc, 8, constraints=constraints)
        for core in preemption_soc.core_names:
            summary = schedule.core_summary(core)
            width = summary.widths[0]
            base = sets[core].time_at(width)
            overhead = sets[core].preemption_overhead(width)
            assert summary.total_time == base + summary.preemptions * overhead

    def test_preemptive_never_catastrophically_worse(self, preemption_soc):
        non_preemptive = run_grid_sweep(
            preemption_soc, 8, percents=(1, 10, 25), deltas=(0, 2), slacks=(0, 3)
        ).schedule
        constraints = ConstraintSet.for_soc(preemption_soc, default_preemptions=2)
        preemptive = run_grid_sweep(
            preemption_soc,
            8,
            constraints=constraints,
            percents=(1, 10, 25),
            deltas=(0, 2),
            slacks=(0, 3),
        ).schedule
        # The paper observes preemption usually helps and occasionally costs a
        # little (the si+so resume penalty); 5 % is a generous envelope.
        assert preemptive.makespan <= 1.05 * non_preemptive.makespan

    def test_preemption_actually_used_somewhere(self, d695_soc):
        """On at least one benchmark width the preemptive scheduler preempts."""
        constraints = ConstraintSet.for_soc(d695_soc, default_preemptions=2)
        preempted = 0
        for width in (16, 24, 32, 48):
            schedule = run_paper_scheduler(
                d695_soc, width, constraints=constraints, config=SchedulerConfig(percent=10)
            )
            schedule.validate(d695_soc, constraints)
            preempted += sum(schedule.preemptions_of(c) for c in d695_soc.core_names)
        assert preempted > 0

    def test_zero_limit_equals_plain_schedule(self, preemption_soc):
        constraints = ConstraintSet.for_soc(preemption_soc, default_preemptions=0)
        with_constraints = run_paper_scheduler(preemption_soc, 8, constraints=constraints)
        plain = run_paper_scheduler(preemption_soc, 8)
        assert with_constraints.makespan == plain.makespan

    def test_strict_priority_resume_still_valid(self, preemption_soc):
        constraints = ConstraintSet.for_soc(preemption_soc, default_preemptions=2)
        config = SchedulerConfig(strict_priority_resume=True)
        schedule = run_paper_scheduler(preemption_soc, 8, constraints=constraints, config=config)
        schedule.validate(preemption_soc, constraints)


class TestPreemptionWithOtherConstraints:
    def test_preemption_with_power_budget(self, preemption_soc):
        power_max = 1.1 * preemption_soc.max_test_power()
        constraints = ConstraintSet.for_soc(
            preemption_soc, default_preemptions=2, power_max=power_max
        )
        schedule = run_paper_scheduler(preemption_soc, 12, constraints=constraints)
        schedule.validate(preemption_soc, constraints)

    def test_preemption_with_precedence(self, preemption_soc):
        constraints = ConstraintSet.for_soc(
            preemption_soc,
            default_preemptions=2,
            precedence=[("short_0", "long_a")],
        )
        schedule = run_paper_scheduler(preemption_soc, 8, constraints=constraints)
        schedule.validate(preemption_soc, constraints)
        assert (
            schedule.core_summary("long_a").first_begin
            >= schedule.core_summary("short_0").last_end
        )
