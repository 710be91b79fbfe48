"""End-to-end integration tests: the full framework on the benchmark SOCs.

These tests exercise the same pipelines as the benchmark harness (Table 1,
Table 2, Figures 1 and 9) at reduced parameter grids so they stay fast, and
they assert the *qualitative* findings of the paper rather than absolute
cycle counts (see EXPERIMENTS.md for the full-scale runs).
"""

import pytest

from repro import (
    ConstraintSet,
    d695,
    lower_bound,
    render_gantt,
    run_grid_sweep,
    sweep_tam_widths,
    tester_data_volume,
)
from repro.analysis.experiments import (
    figure9_curves,
    power_budget,
    preemption_limits,
    run_table1,
    run_table2,
)
from repro.baselines import run_fixed_width, run_shelf
from repro.core.scheduler import run_paper_scheduler


GRID = dict(percents=(1, 10, 25), deltas=(0, 2), slacks=(0, 3))


class TestFullPipelineD695:
    @pytest.fixture(scope="class")
    def soc(self):
        return d695()

    def test_table1_style_run(self, soc):
        rows = run_table1(
            soc, widths=(16, 32), percents=(1, 10, 25), deltas=(0, 2), slacks=(0, 3)
        )
        assert len(rows) == 2
        for row in rows:
            # Within 30 % of the lower bound (the paper achieves ~5-15 %).
            assert row.lower_bound <= row.non_preemptive <= 1.3 * row.lower_bound
            assert row.lower_bound <= row.preemptive <= 1.3 * row.lower_bound
            assert row.power_constrained >= row.lower_bound
        # Doubling the TAM width roughly halves the testing time.
        assert rows[1].non_preemptive < 0.65 * rows[0].non_preemptive

    def test_schedules_for_all_modes_are_valid(self, soc):
        width = 24
        non_preemptive = run_grid_sweep(soc, width, **GRID).schedule
        non_preemptive.validate(soc)

        limits = preemption_limits(soc)
        preemptive_constraints = ConstraintSet.for_soc(soc, max_preemptions=limits)
        preemptive = run_grid_sweep(soc, width, constraints=preemptive_constraints, **GRID).schedule
        preemptive.validate(soc, preemptive_constraints)

        power_constraints = preemptive_constraints.with_power_max(power_budget(soc))
        constrained = run_grid_sweep(soc, width, constraints=power_constraints, **GRID).schedule
        constrained.validate(soc, power_constraints)
        assert constrained.peak_power(soc) <= power_budget(soc)

    def test_data_volume_tradeoff(self, soc):
        rows, sweep = run_table2(soc, alphas=(0.1, 0.5, 0.9), widths=tuple(range(8, 49, 4)))
        # The paper's key observation: the width minimising data volume is not
        # the width minimising testing time.
        assert sweep.width_of_min_volume < sweep.width_of_min_time
        # And alpha lets the integrator slide between the two.
        assert rows[0].effective_width <= rows[-1].effective_width

    def test_gantt_renders_for_every_width(self, soc):
        for width in (16, 48):
            text = render_gantt(run_paper_scheduler(soc, width))
            assert "d695" in text


class TestQualitativeClaims:
    def test_flexible_beats_baselines_on_d695(self):
        soc = d695()
        width = 64
        flexible = run_grid_sweep(soc, width, **GRID).schedule.makespan
        assert flexible < run_fixed_width(soc, width, max_buses=3).makespan
        assert flexible <= run_shelf(soc, width).makespan

    def test_staircase_and_volume_minima_relationship(self):
        """Figure 9: D(W) = W*T(W) has its minima on Pareto widths of T(W)."""
        soc = d695()
        data = figure9_curves(soc, widths=tuple(range(8, 41, 2)), alphas=(0.5,))
        sweep = data.sweep
        assert sweep.width_of_min_volume in sweep.pareto_widths()
        # Cost curve is minimised strictly between the two extremes for a
        # mid-range alpha (the "U" shape of Figure 9(c)).
        effective = sweep.effective_width(0.5).width
        assert sweep.widths[0] <= effective <= sweep.widths[-1]

    def test_power_constraint_binds_at_wide_tams(self):
        """The paper's power-constrained column grows fastest at wide TAMs."""
        soc = d695()
        limits = preemption_limits(soc)
        constraints = ConstraintSet.for_soc(
            soc, max_preemptions=limits, power_max=power_budget(soc)
        )
        wide_free = run_grid_sweep(soc, 64, **GRID).schedule.makespan
        wide_power = run_grid_sweep(soc, 64, constraints=constraints, **GRID).schedule.makespan
        assert wide_power >= wide_free

    def test_volume_at_min_width_versus_time_tradeoff(self):
        soc = d695()
        sweep = sweep_tam_widths(soc, widths=(16, 24, 32, 40, 48, 56, 64))
        # Testing time shrinks with W while data volume does not (it is
        # width * time, and time saturates).
        assert sweep.testing_times[0] > sweep.testing_times[-1]
        assert sweep.data_volumes[-1] > sweep.min_data_volume

    def test_cpu_time_is_small(self):
        """The paper reports < 5 s per run on a 1998 workstation; one schedule
        of the largest SOC must be well under that here."""
        import time

        from repro.soc.benchmarks import p93791

        soc = p93791()
        start = time.perf_counter()
        schedule = run_paper_scheduler(soc, 64)
        elapsed = time.perf_counter() - start
        assert schedule.makespan >= lower_bound(soc, 64)
        assert elapsed < 5.0

    def test_volume_function_consistency(self):
        soc = d695()
        schedule = run_paper_scheduler(soc, 32)
        assert tester_data_volume(schedule) == 32 * schedule.makespan
