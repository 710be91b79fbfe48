"""Tests of selectively preemptive scheduling (Problem 2)."""

import pytest

from repro.core.grid_sweep import run_grid_sweep
from repro.core.rectangles import build_rectangle_sets
from repro.core import scheduler
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


def _long_core(name):
    # Pareto widths 1..5; T(2) = 4025, T(3) = 3720, T(5) = 1890.
    return Core(name, inputs=10, outputs=10, patterns=60, scan_chains=(30, 30, 30, 30))


def _short_core(name):
    # Pareto widths 1..3; T(2) = 464.
    return Core(name, inputs=4, outputs=4, patterns=30, scan_chains=(12, 12))


@pytest.mark.parametrize("use_heaps", [True, False], ids=["heaps", "scan"])
class TestSegmentShape:
    """A run keeps each core's segments as int bounds and builds the
    :class:`ScheduleSegment` objects once it completes; every segment of a
    core carries the core's final width."""

    def _run(self, soc, width, preferred, limits, use_heaps, **config):
        config = SchedulerConfig(use_candidate_heaps=use_heaps, **config)
        constraints = ConstraintSet.for_soc(soc, max_preemptions=limits)
        run = scheduler._Scheduler(
            soc,
            width,
            constraints,
            config,
            preferred_widths=tuple(preferred[name] for name in soc.core_names),
        )
        schedule = run.run()
        schedule.validate(soc, constraints)
        # The area floor is exact at completion.
        assert run._area == width * schedule.makespan
        return schedule

    def test_seamless_pause_and_resume_merges_into_one_segment(
        self, use_heaps, monkeypatch
    ):
        soc = Soc("seamless", (_long_core("x"), _short_core("y")))
        emitted = []
        emit = scheduler._Scheduler._emit_segment

        def record(state, start, end):
            emitted.append((state.name, start, end))
            emit(state, start, end)

        monkeypatch.setattr(scheduler._Scheduler, "_emit_segment", staticmethod(record))
        schedule = self._run(
            soc, 4, {"x": 2, "y": 2}, {"x": 1}, use_heaps, enable_width_increase=False
        )
        # x is paused when y completes at 464 and resumes at once: two
        # pieces, one segment, no preemption.
        assert [piece for piece in emitted if piece[0] == "x"] == [
            ("x", 0, 464),
            ("x", 464, 4025),
        ]
        (segment,) = schedule.segments_for("x")
        assert (segment.start, segment.end, segment.width) == (0, 4025, 2)
        assert schedule.preemptions_of("x") == 0

    def test_true_preemption_keeps_separate_segments_at_one_width(self, use_heaps):
        soc = Soc("preempted", (_long_core("x"), _short_core("y"), _long_core("z")))
        sets = build_rectangle_sets(soc)
        schedule = self._run(
            soc,
            4,
            {"x": 2, "y": 2, "z": 3},
            {"x": 1},
            use_heaps,
            enable_width_increase=False,
            enable_idle_insertion=False,
        )
        # z (3 wires, 3,720 cycles) fits only once y completes at 464 and
        # outranks x's remaining 3,561 cycles, so x waits for z to finish.
        first, second = schedule.segments_for("x")
        overhead = sets["x"].preemption_overhead(2)
        assert (first.start, first.end, first.width) == (0, 464, 2)
        assert (second.start, second.width) == (464 + 3720, 2)
        assert second.duration == 4025 - 464 + overhead
        assert schedule.preemptions_of("x") == 1

    def test_widened_fresh_start_emits_at_the_widened_width(self, use_heaps):
        soc = Soc("widened", (_long_core("x"), _short_core("y")))
        sets = build_rectangle_sets(soc)
        schedule = self._run(soc, 8, {"x": 2, "y": 2}, {"x": 1}, use_heaps)
        # Both start at 2 wires; the 4 idle wires widen x to its Pareto
        # width 5, and its later seamless pause keeps that width.
        widened = sets["x"].effective_width(6)
        assert widened == 5
        (segment,) = schedule.segments_for("x")
        assert (segment.start, segment.width) == (0, widened)
        assert segment.duration == sets["x"].time_at(widened)
