"""Tests for tester data volume, cost function and effective widths (Problem 3)."""

import pytest

from repro.core.data_volume import (
    CostPoint,
    TamSweep,
    cost_curve,
    effective_width,
    sweep_tam_widths,
    tester_data_volume,
)
from repro.core.scheduler import run_paper_scheduler
from repro.engine.api import parallel_tam_sweep
from repro.schedule.schedule import ScheduleSegment, TestSchedule


class TestTesterDataVolume:
    def test_volume_is_width_times_makespan(self):
        schedule = TestSchedule(
            soc_name="x",
            total_width=16,
            segments=(ScheduleSegment(core="a", start=0, end=100, width=4),),
        )
        assert tester_data_volume(schedule) == 16 * 100

    def test_volume_of_real_schedule(self, small_soc):
        schedule = run_paper_scheduler(small_soc, 8)
        assert tester_data_volume(schedule) == 8 * schedule.makespan


class TestTamSweepConstruction:
    def test_data_volumes_derived_when_missing(self):
        sweep = TamSweep(soc_name="x", widths=(2, 4), testing_times=(100, 60))
        assert sweep.data_volumes == (200, 240)

    def test_explicit_data_volumes_kept(self):
        sweep = TamSweep(
            soc_name="x", widths=(2, 4), testing_times=(100, 60), data_volumes=(7, 8)
        )
        assert sweep.data_volumes == (7, 8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TamSweep(soc_name="x", widths=(2, 4), testing_times=(100,))
        with pytest.raises(ValueError):
            TamSweep(
                soc_name="x", widths=(2,), testing_times=(100,), data_volumes=(1, 2)
            )

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            TamSweep(soc_name="x", widths=(), testing_times=())


class TestTamSweepQueries:
    @pytest.fixture
    def sweep(self):
        # A hand-made staircase: T flat between Pareto points.
        widths = (2, 3, 4, 5, 6)
        times = (120, 80, 80, 60, 60)
        return TamSweep(soc_name="x", widths=widths, testing_times=times)

    def test_minima(self, sweep):
        assert sweep.min_testing_time == 60
        assert sweep.width_of_min_time == 5
        # D = (240, 240, 320, 300, 360) -> min 240 at width 2 (first occurrence)
        assert sweep.min_data_volume == 240
        assert sweep.width_of_min_volume == 2

    def test_lookups(self, sweep):
        assert sweep.testing_time_at(3) == 80
        assert sweep.data_volume_at(4) == 320

    def test_pareto_widths(self, sweep):
        assert sweep.pareto_widths() == [2, 3, 5]

    def test_cost_at_extremes(self, sweep):
        # alpha=1: pure testing time; minimum at width 5.
        assert sweep.effective_width(1.0).width == 5
        # alpha=0: pure data volume; minimum at width 2.
        assert sweep.effective_width(0.0).width == 2

    def test_cost_curve_values(self, sweep):
        curve = sweep.cost_curve(0.5)
        point = next(p for p in curve if p.width == 3)
        expected = 0.5 * 80 / 60 + 0.5 * 240 / 240
        assert point.cost == pytest.approx(expected)

    def test_effective_width_between_extremes(self, sweep):
        width_half = sweep.effective_width(0.5).width
        assert sweep.width_of_min_volume <= width_half <= sweep.width_of_min_time

    def test_cost_is_at_least_one(self, sweep):
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            for point in sweep.cost_curve(alpha):
                assert point.cost >= 1.0 - 1e-12

    def test_invalid_alpha_rejected(self, sweep):
        with pytest.raises(ValueError):
            sweep.cost_at(2, -0.1)
        with pytest.raises(ValueError):
            sweep.effective_width(1.5)

    def test_module_level_wrappers(self, sweep):
        assert cost_curve(sweep, 0.5) == sweep.cost_curve(0.5)
        assert effective_width(sweep, 0.5) == sweep.effective_width(0.5)
        assert isinstance(effective_width(sweep, 0.5), CostPoint)


class TestSweepTamWidths:
    def test_sweep_runs_scheduler_per_width(self, small_soc):
        sweep = sweep_tam_widths(small_soc, widths=(2, 4, 8))
        assert sweep.widths == (2, 4, 8)
        for width, time in zip(sweep.widths, sweep.testing_times):
            assert time == run_paper_scheduler(small_soc, width).makespan

    def test_sweep_requires_widths(self, small_soc):
        with pytest.raises(ValueError):
            sweep_tam_widths(small_soc, widths=())

    @pytest.mark.parametrize("sweep", [sweep_tam_widths, parallel_tam_sweep])
    @pytest.mark.parametrize("bad", [16.9, "16", True])
    def test_sweep_rejects_non_integer_widths(self, small_soc, sweep, bad):
        with pytest.raises(ValueError, match="TAM widths must be integers"):
            sweep(small_soc, [bad, 32])

    def test_sweep_with_custom_scheduler(self, small_soc):
        calls = []

        def fake_scheduler(soc, width, constraints=None, config=None):
            calls.append(width)
            return TestSchedule(
                soc_name=soc.name,
                total_width=width,
                segments=(ScheduleSegment(core="alpha", start=0, end=1000 // width, width=1),),
            )

        sweep = sweep_tam_widths(small_soc, widths=(2, 5), scheduler=fake_scheduler)
        assert calls == [2, 5]
        assert sweep.testing_times == (500, 200)

    def test_testing_time_trend_downward(self, small_soc):
        sweep = sweep_tam_widths(small_soc, widths=(1, 2, 4, 8, 16))
        assert sweep.testing_times[0] >= sweep.testing_times[-1]
