"""Tests for the experiment drivers (repro.analysis.experiments)."""

import pytest

from repro.analysis.experiments import (
    TABLE1_WIDTHS,
    TABLE2_ALPHAS,
    Table1Row,
    Table2Row,
    figure1_staircase,
    figure9_curves,
    power_budget,
    preemption_limits,
    run_table1,
    run_table2,
    table1_jobs,
)
from repro.core import rectangles
from repro.core.data_volume import sweep_tam_widths
from repro.core.lower_bounds import lower_bound
from repro.engine.api import (
    MODE_NON_PREEMPTIVE,
    MODE_POWER_CONSTRAINED,
    MODE_PREEMPTIVE,
    SCHEDULER_MODES,
)
from repro.engine.runner import run_jobs
from repro.soc.core import Core
from repro.soc.soc import Soc


@pytest.fixture(scope="module")
def medium_soc():
    """A six-core SOC large enough to be interesting but fast to schedule."""
    cores = (
        Core("c1", inputs=10, outputs=12, patterns=40, scan_chains=(20, 20, 16)),
        Core("c2", inputs=8, outputs=8, patterns=25, scan_chains=(24, 24)),
        Core("c3", inputs=6, outputs=6, patterns=60, scan_chains=(10, 10, 10, 10)),
        Core("c4", inputs=12, outputs=4, patterns=15, scan_chains=(30,)),
        Core("c5", inputs=5, outputs=9, patterns=35, scan_chains=(18, 14)),
        Core("c6", inputs=20, outputs=16, patterns=10, scan_chains=()),
    )
    return Soc("medium6", cores)


class TestHelpers:
    def test_preemption_limits_cover_larger_half(self, medium_soc):
        limits = preemption_limits(medium_soc, limit=2, top_fraction=0.5)
        assert len(limits) == 3
        assert all(value == 2 for value in limits.values())
        ranked = sorted(medium_soc.cores, key=lambda c: c.total_test_bits, reverse=True)
        assert set(limits) == {c.name for c in ranked[:3]}

    def test_power_budget_scales_max_power(self, medium_soc):
        assert power_budget(medium_soc, factor=1.1) == pytest.approx(
            1.1 * medium_soc.max_test_power()
        )

    def test_width_and_alpha_tables_cover_all_socs(self):
        assert set(TABLE1_WIDTHS) == {"d695", "p22810", "p34392", "p93791"}
        assert set(TABLE2_ALPHAS) == {"d695", "p22810", "p34392", "p93791"}
        assert TABLE1_WIDTHS["p34392"] == (16, 24, 28, 32)


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self, medium_soc):
        return run_table1(
            medium_soc,
            widths=(8, 16),
            percents=(1, 10),
            deltas=(0, 2),
            slacks=(0, 3),
        )

    def test_row_per_width(self, rows):
        assert [row.width for row in rows] == [8, 16]
        assert all(isinstance(row, Table1Row) for row in rows)

    def test_lower_bound_column_matches_module(self, rows, medium_soc):
        for row in rows:
            assert row.lower_bound == lower_bound(medium_soc, row.width)

    def test_schedules_respect_lower_bound(self, rows):
        for row in rows:
            assert row.non_preemptive >= row.lower_bound
            assert row.preemptive >= row.lower_bound
            assert row.power_constrained >= row.lower_bound

    def test_ratios(self, rows):
        for row in rows:
            assert row.non_preemptive_ratio == pytest.approx(
                row.non_preemptive / row.lower_bound
            )
            assert row.preemptive_ratio >= 1.0

    def test_testing_time_shrinks_with_width(self, rows):
        assert rows[1].non_preemptive < rows[0].non_preemptive

    def test_a_warm_call_builds_no_soc_plan(self, medium_soc, monkeypatch):
        grid = {"percents": (1, 10), "deltas": (0, 2), "slacks": (0, 3)}
        widths = (8, 12, 16, 24)
        first = run_table1(medium_soc, widths=widths, **grid)
        built = [0]
        init = rectangles.SocPlan.__init__

        def counted(self, *args):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(rectangles.SocPlan, "__init__", counted)
        assert run_table1(medium_soc, widths=widths, **grid) == first
        # Bounding each row without the session's sets built fresh sets
        # and a plan per width: 4 here.
        assert built[0] == 0

    def test_table1_jobs_carry_the_row_cells(self, rows, medium_soc):
        # Fault plans name these jobs by index (``job:...:i1``), so the order
        # is width outer, mode inner, and the jobs solve the rows' cells.
        jobs, context = table1_jobs(
            medium_soc, (8, 16), percents=(1, 10), deltas=(0, 2), slacks=(0, 3)
        )
        cells = [(width, mode) for width in (8, 16) for mode in SCHEDULER_MODES]
        assert [job.index for job in jobs] == list(range(len(cells)))
        assert [job.group for job in jobs] == cells
        assert {job.solver for job in jobs} == {"best"}
        assert [job.constraints for job in jobs[:3]] == [
            None, MODE_PREEMPTIVE, MODE_POWER_CONSTRAINED
        ]
        makespans = {
            result.job.group: result.makespan
            for result in run_jobs(jobs, context, workers=0)
        }
        for row in rows:
            assert (
                makespans[(row.width, MODE_NON_PREEMPTIVE)],
                makespans[(row.width, MODE_PREEMPTIVE)],
                makespans[(row.width, MODE_POWER_CONSTRAINED)],
            ) == (row.non_preemptive, row.preemptive, row.power_constrained)


class TestTable2:
    @pytest.fixture(scope="class")
    def table2(self, medium_soc):
        return run_table2(medium_soc, alphas=(0.0, 0.5, 1.0), widths=tuple(range(4, 25, 4)))

    def test_one_row_per_alpha(self, table2):
        rows, _ = table2
        assert [row.alpha for row in rows] == [0.0, 0.5, 1.0]
        assert all(isinstance(row, Table2Row) for row in rows)

    def test_extreme_alphas_pick_extreme_widths(self, table2):
        rows, sweep = table2
        by_alpha = {row.alpha: row for row in rows}
        assert by_alpha[0.0].effective_width == sweep.width_of_min_volume
        assert by_alpha[1.0].testing_time_at_effective == sweep.min_testing_time

    def test_min_columns_consistent_with_sweep(self, table2):
        rows, sweep = table2
        for row in rows:
            assert row.min_testing_time == sweep.min_testing_time
            assert row.min_data_volume == sweep.min_data_volume

    def test_effective_width_is_swept_width(self, table2):
        rows, sweep = table2
        for row in rows:
            assert row.effective_width in sweep.widths

    def test_reuses_precomputed_sweep(self, medium_soc, table2):
        _, sweep = table2
        rows, sweep_again = run_table2(medium_soc, alphas=(0.5,), sweep=sweep)
        assert sweep_again is sweep
        assert rows[0].min_testing_time == sweep.min_testing_time


class TestFigures:
    def test_figure1_staircase_shape(self, p93791_soc):
        series = figure1_staircase(p93791_soc.core("Core 6"), max_width=64)
        assert len(series) == 64
        widths = [w for w, _ in series]
        times = [t for _, t in series]
        assert widths == list(range(1, 65))
        assert all(a >= b for a, b in zip(times, times[1:]))
        # Figure 1's headline feature: the staircase is flat past saturation.
        assert times[-1] == times[50]

    def test_figure9_curves(self, medium_soc):
        data = figure9_curves(medium_soc, widths=tuple(range(4, 21, 2)), alphas=(0.5, 0.75))
        assert data.alphas == (0.5, 0.75)
        assert len(data.time_curve) == len(data.volume_curve) == 9
        assert set(data.cost_curves) == {0.5, 0.75}
        # Cost curves are normalised: their minimum should be close to 1.
        for curve in data.cost_curves.values():
            assert min(cost for _, cost in curve) >= 1.0 - 1e-9
            assert min(cost for _, cost in curve) < 2.0

    def test_figure9_accepts_precomputed_sweep(self, medium_soc):
        sweep = sweep_tam_widths(medium_soc, widths=(4, 8, 12))
        data = figure9_curves(medium_soc, sweep=sweep, alphas=(0.5,))
        assert data.sweep is sweep

    def test_data_volume_dips_at_pareto_points(self, medium_soc):
        """Figure 9(b): D(W) reaches local minima at Pareto widths of T(W)."""
        sweep = sweep_tam_widths(medium_soc, widths=tuple(range(2, 25)))
        pareto = sweep.pareto_widths()
        assert len(pareto) >= 3
        # The global minimum of D occurs at a Pareto width of the T curve.
        assert sweep.width_of_min_volume in pareto
