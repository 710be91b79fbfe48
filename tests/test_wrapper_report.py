"""Tests for wrapper implementation plans (repro.wrapper.report)."""

import pytest

from repro.core.scheduler import run_paper_scheduler
from repro.soc.core import Core
from repro.wrapper.design_wrapper import design_wrapper, testing_time
from repro.wrapper.report import (
    core_wrapper_plan,
    format_soc_wrapper_plans,
    format_wrapper_plan,
    wrapper_plans_for_schedule,
)


@pytest.fixture
def core():
    return Core("demo", inputs=9, outputs=7, bidirs=2, patterns=11, scan_chains=(12, 8, 8, 5))


class TestCoreWrapperPlan:
    def test_plan_matches_design(self, core):
        plan = core_wrapper_plan(core, 4)
        design = design_wrapper(core, 4)
        assert plan.core == "demo"
        assert plan.tam_width == 4
        assert plan.scan_in_length == design.scan_in_length
        assert plan.scan_out_length == design.scan_out_length
        assert plan.testing_time == design.testing_time
        assert len(plan.chains) == 4

    def test_plan_accounts_for_every_cell(self, core):
        plan = core_wrapper_plan(core, 3)
        assert sum(sum(chain.internal_chains) for chain in plan.chains) == core.scan_cells
        assert sum(chain.input_cells for chain in plan.chains) == core.inputs
        assert sum(chain.output_cells for chain in plan.chains) == core.outputs
        assert sum(chain.bidir_cells for chain in plan.chains) == core.bidirs

    def test_used_chains(self, core):
        wide = core_wrapper_plan(core, 16)
        assert wide.used_chains <= 16
        narrow = core_wrapper_plan(core, 2)
        assert narrow.used_chains == 2

    def test_chain_lengths_consistent(self, core):
        plan = core_wrapper_plan(core, 5)
        for chain in plan.chains:
            internal = sum(chain.internal_chains)
            assert chain.scan_in_length == internal + chain.input_cells + chain.bidir_cells
            assert chain.scan_out_length == internal + chain.output_cells + chain.bidir_cells


class TestSchedulePlans:
    def test_plans_cover_every_core(self, small_soc):
        schedule = run_paper_scheduler(small_soc, 8)
        plans = wrapper_plans_for_schedule(small_soc, schedule)
        assert set(plans) == set(small_soc.core_names)
        for name, plan in plans.items():
            assert plan.tam_width == schedule.core_summary(name).widths[0]

    def test_plan_testing_time_matches_wrapper_model(self, small_soc):
        schedule = run_paper_scheduler(small_soc, 8)
        plans = wrapper_plans_for_schedule(small_soc, schedule)
        for name, plan in plans.items():
            expected = testing_time(small_soc.core(name), plan.tam_width)
            # The plan reports the raw design time at exactly that width,
            # which can only be >= the best-over-width value.
            assert plan.testing_time >= expected


class TestFormatting:
    def test_format_single_plan(self, core):
        text = format_wrapper_plan(core_wrapper_plan(core, 3))
        assert "demo" in text
        assert "chain 0" in text and "chain 2" in text
        assert "si=" in text and "so=" in text

    def test_unused_chains_marked(self):
        sparse = Core("sparse", inputs=1, outputs=1, patterns=4, scan_chains=(5,))
        text = format_wrapper_plan(core_wrapper_plan(sparse, 8))
        assert "(unused)" in text

    def test_format_soc_plans(self, small_soc):
        schedule = run_paper_scheduler(small_soc, 8)
        text = format_soc_wrapper_plans(small_soc, schedule)
        for name in small_soc.core_names:
            assert name in text
        assert "Wrapper implementation plan" in text
