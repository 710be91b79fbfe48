"""Tests of the scheduler's optional heuristics and configuration modes."""

import pytest

from repro.core.lower_bounds import lower_bound
from repro.core.scheduler import SchedulerConfig, run_paper_scheduler
from repro.soc.constraints import ConstraintSet
from repro.soc.core import Core
from repro.soc.soc import Soc


@pytest.fixture
def soc():
    cores = (
        Core("w1", inputs=6, outputs=6, patterns=30, scan_chains=(20, 20, 20)),
        Core("w2", inputs=6, outputs=6, patterns=25, scan_chains=(18, 18)),
        Core("w3", inputs=4, outputs=4, patterns=40, scan_chains=(10, 10, 10, 10)),
        Core("w4", inputs=8, outputs=8, patterns=12, scan_chains=(24,)),
        Core("w5", inputs=12, outputs=10, patterns=18, scan_chains=()),
    )
    return Soc("modes", cores)


class TestHeuristicToggles:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"enable_idle_insertion": False},
            {"enable_width_increase": False},
            {"enable_idle_insertion": False, "enable_width_increase": False},
            {"strict_priority_resume": True},
        ],
    )
    def test_disabled_heuristics_still_produce_valid_schedules(self, soc, kwargs):
        config = SchedulerConfig(**kwargs)
        for width in (4, 8, 16):
            schedule = run_paper_scheduler(soc, width, config=config)
            schedule.validate(soc)
            assert schedule.makespan >= lower_bound(soc, width)

    def test_idle_insertion_never_hurts_much(self, soc):
        """Disabling the insertion heuristic may leave wires idle but must not
        change correctness; with it enabled the makespan is usually no worse."""
        width = 12
        with_insertion = run_paper_scheduler(soc, width, config=SchedulerConfig()).makespan
        without = run_paper_scheduler(
            soc, width, config=SchedulerConfig(enable_idle_insertion=False)
        ).makespan
        assert with_insertion <= 1.2 * without

    def test_width_increase_uses_leftover_wires(self):
        """With a single core and a wide TAM, the width-increase heuristic must
        push the core to its saturating width even if its preferred width is
        narrower."""
        core = Core("solo", inputs=6, outputs=6, patterns=30, scan_chains=(20, 20, 20, 20))
        soc = Soc("solo", (core,))
        config = SchedulerConfig(percent=50)  # deliberately narrow preferred width
        schedule = run_paper_scheduler(soc, 32, config=config)
        no_increase = run_paper_scheduler(
            soc, 32, config=SchedulerConfig(percent=50, enable_width_increase=False)
        )
        assert schedule.makespan <= no_increase.makespan

    def test_strict_mode_is_non_preemptive_equivalent_without_budget(self, soc):
        plain = run_paper_scheduler(soc, 8)
        strict = run_paper_scheduler(soc, 8, config=SchedulerConfig(strict_priority_resume=True))
        assert plain.makespan == strict.makespan

    def test_max_core_width_smaller_than_total(self, soc):
        config = SchedulerConfig(max_core_width=4)
        schedule = run_paper_scheduler(soc, 16, config=config)
        schedule.validate(soc)
        assert all(segment.width <= 4 for segment in schedule.segments)


class TestPreferredWidthEffects:
    def test_small_percent_prefers_wide_cores(self, soc):
        wide = run_paper_scheduler(soc, 32, config=SchedulerConfig(percent=0))
        narrow = run_paper_scheduler(soc, 32, config=SchedulerConfig(percent=60))
        avg_width_wide = sum(s.width for s in wide.segments) / len(wide.segments)
        avg_width_narrow = sum(s.width for s in narrow.segments) / len(narrow.segments)
        assert avg_width_wide >= avg_width_narrow

    def test_delta_bump_changes_assignment(self):
        """A core whose preferred width sits just below its saturating width
        gets bumped when delta allows it (the paper's p34392 Core 18 story)."""
        bottleneck = Core(
            "bottleneck", inputs=4, outputs=4, patterns=50, scan_chains=(40, 40, 40, 40, 40)
        )
        filler = Core("filler", inputs=4, outputs=4, patterns=10, scan_chains=(10, 10))
        soc = Soc("bump", (bottleneck, filler))
        no_bump = run_paper_scheduler(soc, 8, config=SchedulerConfig(percent=10, delta=0))
        bump = run_paper_scheduler(soc, 8, config=SchedulerConfig(percent=10, delta=4))
        width_no_bump = no_bump.core_summary("bottleneck").widths[0]
        width_bump = bump.core_summary("bottleneck").widths[0]
        assert width_bump >= width_no_bump


class TestConstraintEdgeCases:
    def test_precedence_chain_with_preemption_budget(self, soc):
        constraints = ConstraintSet.for_soc(
            soc,
            precedence=[("w1", "w2"), ("w2", "w3")],
            default_preemptions=2,
        )
        schedule = run_paper_scheduler(soc, 8, constraints=constraints)
        schedule.validate(soc, constraints)

    def test_concurrency_clique_with_power(self, soc):
        constraints = ConstraintSet.for_soc(
            soc,
            concurrency=[("w1", "w2"), ("w1", "w3"), ("w2", "w3")],
            power_max=2.0 * soc.max_test_power(),
        )
        schedule = run_paper_scheduler(soc, 16, constraints=constraints)
        schedule.validate(soc, constraints)

    def test_width_one_with_constraints(self, soc):
        constraints = ConstraintSet.for_soc(soc, precedence=[("w5", "w1")])
        schedule = run_paper_scheduler(soc, 1, constraints=constraints)
        schedule.validate(soc, constraints)
