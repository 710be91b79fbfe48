"""Tests of the rectangle-packing scheduler on unconstrained problems (Problem 1)."""

import gc
import weakref

import pytest

from repro.core.lower_bounds import lower_bound
from repro.core.rectangles import build_rectangle_sets
from repro.core.scheduler import (
    SchedulerConfig,
    SchedulerError,
    best_schedule,
    run_best_schedule,
    run_paper_scheduler,
    schedule_soc,
)
from repro.soc.benchmarks import get_benchmark
from repro.soc.core import Core
from repro.soc.soc import Soc


class TestSchedulerConfig:
    def test_defaults_valid(self):
        config = SchedulerConfig()
        assert config.percent == 5.0
        assert config.insertion_slack == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"percent": -1},
            {"delta": -1},
            {"max_core_width": 0},
            {"insertion_slack": -1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerConfig(**kwargs)


class TestSingleCore:
    def test_single_core_gets_whole_tam(self):
        core = Core("solo", inputs=4, outputs=4, patterns=10, scan_chains=(8, 8))
        soc = Soc("solo-soc", (core,))
        sets = build_rectangle_sets(soc, max_width=16)
        schedule = schedule_soc(soc, 16, config=SchedulerConfig(percent=0))
        assert schedule.makespan == sets["solo"].min_time
        assert schedule.segments_for("solo")[0].start == 0

    def test_width_one(self):
        core = Core("solo", inputs=4, outputs=4, patterns=10, scan_chains=(8, 8))
        soc = Soc("solo-soc", (core,))
        schedule = schedule_soc(soc, 1)
        sets = build_rectangle_sets(soc)
        assert schedule.makespan == sets["solo"].time_at(1)

    def test_invalid_total_width(self):
        core = Core("solo", inputs=4, outputs=4, patterns=10)
        soc = Soc("solo-soc", (core,))
        with pytest.raises(SchedulerError):
            schedule_soc(soc, 0)


class TestSmallSoc:
    def test_every_core_scheduled_exactly_once(self, small_soc):
        schedule = schedule_soc(small_soc, 8)
        assert set(schedule.scheduled_cores) == set(small_soc.core_names)
        for core in small_soc.core_names:
            assert schedule.preemptions_of(core) == 0  # non-preemptive by default

    def test_schedule_is_structurally_valid(self, small_soc):
        for width in (2, 4, 8, 16):
            schedule = schedule_soc(small_soc, width)
            schedule.validate(small_soc)

    def test_peak_width_within_budget(self, small_soc):
        for width in (3, 5, 9):
            schedule = schedule_soc(small_soc, width)
            assert schedule.peak_width() <= width

    def test_each_core_runs_long_enough(self, small_soc):
        sets = build_rectangle_sets(small_soc)
        schedule = schedule_soc(small_soc, 8)
        for core in small_soc.core_names:
            summary = schedule.core_summary(core)
            width = summary.widths[0]
            assert summary.total_time >= sets[core].time_at(width)

    def test_makespan_at_least_lower_bound(self, small_soc):
        for width in (2, 4, 8, 16, 32):
            schedule = schedule_soc(small_soc, width)
            assert schedule.makespan >= lower_bound(small_soc, width)

    def test_wider_tam_never_much_worse(self, small_soc):
        narrow = schedule_soc(small_soc, 4).makespan
        wide = schedule_soc(small_soc, 16).makespan
        assert wide <= narrow

    def test_deterministic(self, small_soc):
        first = schedule_soc(small_soc, 8)
        second = schedule_soc(small_soc, 8)
        assert first.segments == second.segments


class TestHeuristicQuality:
    def test_d695_within_25_percent_of_lower_bound(self, d695_soc):
        for width in (16, 32, 64):
            schedule = best_schedule(
                d695_soc,
                width,
                percents=(1, 5, 10, 25, 40, 60),
                deltas=(0, 2),
                slacks=(0, 3, 6),
            )
            bound = lower_bound(d695_soc, width)
            assert schedule.makespan <= 1.25 * bound

    def test_d695_utilisation_reasonable(self, d695_soc):
        schedule = best_schedule(
            d695_soc, 16, percents=(1, 5, 10), deltas=(0, 2), slacks=(0, 3)
        )
        assert schedule.tam_utilization > 0.8

    def test_best_schedule_never_worse_than_single_config(self, small_soc):
        single = schedule_soc(small_soc, 8, config=SchedulerConfig(percent=5, delta=0))
        best = best_schedule(small_soc, 8)
        assert best.makespan <= single.makespan

    def test_identical_cores_pack_in_parallel(self):
        cores = tuple(
            Core(f"c{i}", inputs=2, outputs=2, patterns=10, scan_chains=(8,))
            for i in range(4)
        )
        soc = Soc("quad", cores)
        sets = build_rectangle_sets(soc)
        solo_time = sets["c0"].min_time
        # With 4x the width a single core needs, all four should overlap heavily.
        width_needed = sets["c0"].max_pareto_width
        schedule = schedule_soc(soc, 4 * width_needed, config=SchedulerConfig(percent=0))
        assert schedule.makespan < 2 * solo_time


class TestWidthHandling:
    def test_core_width_capped_by_max_core_width(self, small_soc):
        config = SchedulerConfig(percent=0, max_core_width=2)
        schedule = schedule_soc(small_soc, 16, config=config)
        for segment in schedule.segments:
            assert segment.width <= 2

    def test_assigned_widths_are_pareto_optimal(self, small_soc):
        sets = build_rectangle_sets(small_soc)
        schedule = schedule_soc(small_soc, 12)
        for segment in schedule.segments:
            pareto_widths = {p.width for p in sets[segment.core].points}
            assert segment.width in pareto_widths

    def test_single_wire_soc(self, small_soc):
        schedule = schedule_soc(small_soc, 1)
        # Everything runs sequentially on one wire.
        sets = build_rectangle_sets(small_soc)
        expected = sum(sets[c].time_at(1) for c in small_soc.core_names)
        assert schedule.makespan == expected


class TestRunLifetime:
    def test_finished_run_is_freed_without_the_cycle_collector(self):
        # A reference cycle through the scheduler would keep every finished
        # run -- its core states, rectangle sets and wrapper curves -- alive
        # until a full collection, and peak memory would grow with each solve.
        soc = get_benchmark("d695")
        sets = build_rectangle_sets(soc, max_width=64)
        probe = weakref.ref(sets[soc.cores[0].name])
        gc.collect()
        gc.disable()
        try:
            run_paper_scheduler(soc, 32, rectangle_sets=sets)
            del sets
            assert probe() is None
        finally:
            gc.enable()

    def test_dropped_sets_free_their_plan_without_the_cycle_collector(self):
        # The plan hangs off the rectangle sets and must not point back at
        # them: dropping the sets frees the plan and its filled caches.
        soc = get_benchmark("d695")
        sets = build_rectangle_sets(soc, max_width=64)
        gc.collect()
        gc.disable()
        try:
            run_paper_scheduler(soc, 32, rectangle_sets=sets)
            run_best_schedule(soc, 24, rectangle_sets=sets, percents=(1, 25), deltas=(0,))
            assert sets.plan is not None
            probe = weakref.ref(sets.plan)
            del sets
            assert probe() is None
        finally:
            gc.enable()
