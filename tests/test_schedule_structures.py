"""Unit tests for schedule data structures and validation (repro.schedule)."""

import copy
import dataclasses
import json
import os
import pickle

import pytest

from repro.analysis.perf import schedule_fingerprint
from repro.core.rectangles import build_rectangle_sets
from repro.core.scheduler import SchedulerConfig, run_paper_scheduler
from repro.schedule.schedule import ScheduleError, ScheduleSegment, TestSchedule
from repro.soc.benchmarks import get_benchmark
from repro.soc.constraints import ConstraintSet
from repro.soc.core import Core
from repro.soc.soc import Soc


@pytest.fixture
def two_core_soc():
    return Soc(
        "duo",
        (
            Core("a", inputs=2, outputs=2, patterns=5, scan_chains=(4,), power=10.0),
            Core("b", inputs=2, outputs=2, patterns=5, scan_chains=(4,), power=20.0),
        ),
    )


def _schedule(segments, width=8, name="duo"):
    return TestSchedule(soc_name=name, total_width=width, segments=tuple(segments))


class TestScheduleSegment:
    def test_duration_and_area(self):
        seg = ScheduleSegment(core="a", start=10, end=25, width=4)
        assert seg.duration == 15
        assert seg.area == 60

    def test_invalid_segments(self):
        with pytest.raises(ScheduleError):
            ScheduleSegment(core="a", start=-1, end=5, width=1)
        with pytest.raises(ScheduleError):
            ScheduleSegment(core="a", start=5, end=5, width=1)
        with pytest.raises(ScheduleError):
            ScheduleSegment(core="a", start=0, end=5, width=0)

    def test_overlap_detection(self):
        first = ScheduleSegment(core="a", start=0, end=10, width=1)
        second = ScheduleSegment(core="b", start=5, end=15, width=1)
        third = ScheduleSegment(core="c", start=10, end=20, width=1)
        assert first.overlaps(second)
        assert not first.overlaps(third)  # touching boundaries do not overlap

    def test_slotted_without_instance_dict(self):
        seg = ScheduleSegment(core="a", start=0, end=10, width=2)
        assert not hasattr(seg, "__dict__")

    @pytest.mark.parametrize(
        "clone",
        [
            lambda seg: pickle.loads(pickle.dumps(seg)),
            lambda seg: pickle.loads(pickle.dumps(seg, protocol=0)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"],
    )
    def test_round_trips(self, clone):
        seg = ScheduleSegment(core="Core 6", start=3, end=17, width=5)
        back = clone(seg)
        assert back == seg and back is not seg and hash(back) == hash(seg)

    def test_unpickled_schedules_share_core_names(self):
        # Each schedule a pool worker returns is unpickled on its own; the
        # copies must share one string per core, not bring fresh ones.
        schedule = run_paper_scheduler(get_benchmark("d695"), 32)
        first, second = (
            pickle.loads(pickle.dumps(schedule)) for _ in range(2)
        )
        assert first == second == schedule
        assert schedule_fingerprint(first) == schedule_fingerprint(second)
        assert schedule_fingerprint(first) == schedule_fingerprint(schedule)
        for one, other in zip(first.segments, second.segments):
            assert one.core is other.core

    def test_unpickled_schedule_shares_boundary_times(self):
        schedule = run_paper_scheduler(
            get_benchmark("p93791"), 32, constraints=ConstraintSet(default_preemptions=2)
        )
        back = pickle.loads(pickle.dumps(schedule))
        assert back == schedule
        assert schedule_fingerprint(back) == schedule_fingerprint(schedule)
        starts = {segment.start: segment.start for segment in back.segments}
        touching = [segment for segment in back.segments if segment.end in starts]
        assert len(touching) > 10
        for segment in touching:
            # One int object per distinct time, not one per field.
            assert segment.end is starts[segment.end]
        assert len({id(segment.end) for segment in back.segments}) == len(
            {segment.end for segment in back.segments}
        )

    @pytest.mark.parametrize(
        "clone",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_schedule_round_trips_through_the_constructors(self, clone):
        schedule = _schedule(
            [
                ScheduleSegment(core="b", start=300, end=700, width=3),
                ScheduleSegment(core="a", start=0, end=300, width=2),
            ]
        )
        back = clone(schedule)
        assert back == schedule and back is not schedule
        assert [s.core for s in back.segments] == ["a", "b"]
        # The rows are rebuilt through the constructors, so a corrupted row
        # is refused rather than restored as-is.
        rebuild, (name, width, rows) = schedule.__reduce__()
        assert rows == (("a", 0, 300, 2), ("b", 300, 700, 3))
        with pytest.raises(ScheduleError, match="non-positive duration"):
            rebuild(name, width, (("a", 5, 5, 2),))
        with pytest.raises(ScheduleError, match="width must be positive"):
            rebuild(name, 0, rows)

    def test_frozen(self):
        seg = ScheduleSegment(core="a", start=0, end=10, width=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            seg.start = 1  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            del seg.width  # type: ignore[misc]

    def test_equal_segments_hash_equal(self):
        first = ScheduleSegment(core="a", start=0, end=10, width=2)
        second = ScheduleSegment(core="a", start=0, end=10, width=2)
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != dataclasses.replace(second, width=3)


class TestScheduleAggregates:
    def test_makespan_and_idle_area(self):
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=4),
                ScheduleSegment(core="b", start=0, end=20, width=4),
            ]
        )
        assert sched.makespan == 20
        assert sched.occupied_area == 40 + 80
        assert sched.idle_area == 8 * 20 - 120
        assert sched.tam_utilization == pytest.approx(120 / 160)

    def test_empty_schedule(self):
        sched = _schedule([])
        assert sched.makespan == 0
        assert sched.tam_utilization == 0.0
        assert sched.peak_width() == 0

    def test_segments_sorted_by_start(self):
        sched = _schedule(
            [
                ScheduleSegment(core="b", start=10, end=20, width=1),
                ScheduleSegment(core="a", start=0, end=5, width=1),
            ]
        )
        assert sched.segments[0].core == "a"

    def test_scheduled_cores_and_preemptions(self):
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=2),
                ScheduleSegment(core="a", start=15, end=20, width=2),
                ScheduleSegment(core="b", start=0, end=5, width=2),
            ]
        )
        assert set(sched.scheduled_cores) == {"a", "b"}
        assert sched.preemptions_of("a") == 1
        assert sched.preemptions_of("b") == 0

    def test_core_summary(self):
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=2),
                ScheduleSegment(core="a", start=15, end=20, width=2),
            ]
        )
        summary = sched.core_summary("a")
        assert summary.first_begin == 0
        assert summary.last_end == 20
        assert summary.total_time == 15
        assert summary.preemptions == 1

    def test_core_summary_missing(self):
        with pytest.raises(KeyError):
            _schedule([]).core_summary("ghost")

    def test_width_profile_and_peak(self):
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=3),
                ScheduleSegment(core="b", start=5, end=15, width=4),
            ]
        )
        assert sched.peak_width() == 7
        profile = dict(sched.width_profile())
        assert profile[0] == 3
        assert profile[5] == 7
        assert profile[10] == 4
        assert profile[15] == 0

    def test_power_profile_and_peak(self, two_core_soc):
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=3),
                ScheduleSegment(core="b", start=5, end=15, width=4),
            ]
        )
        assert sched.peak_power(two_core_soc) == pytest.approx(30.0)


class TestValidation:
    def test_valid_schedule_passes(self, two_core_soc):
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=3),
                ScheduleSegment(core="b", start=0, end=10, width=5),
            ]
        )
        sched.validate(two_core_soc)

    def test_unknown_core_rejected(self, two_core_soc):
        sched = _schedule(
            [
                ScheduleSegment(core="ghost", start=0, end=10, width=3),
                ScheduleSegment(core="a", start=0, end=5, width=1),
                ScheduleSegment(core="b", start=0, end=5, width=1),
            ]
        )
        with pytest.raises(ScheduleError, match="unknown"):
            sched.validate(two_core_soc)

    def test_missing_core_rejected(self, two_core_soc):
        sched = _schedule([ScheduleSegment(core="a", start=0, end=10, width=3)])
        with pytest.raises(ScheduleError, match="does not test"):
            sched.validate(two_core_soc)

    def test_width_capacity_violation(self, two_core_soc):
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=6),
                ScheduleSegment(core="b", start=0, end=10, width=6),
            ],
            width=8,
        )
        with pytest.raises(ScheduleError, match="TAM width exceeded"):
            sched.validate(two_core_soc)

    def test_self_overlap_rejected(self, two_core_soc):
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=2),
                ScheduleSegment(core="a", start=5, end=12, width=2),
                ScheduleSegment(core="b", start=0, end=3, width=2),
            ]
        )
        with pytest.raises(ScheduleError, match="overlapping"):
            sched.validate(two_core_soc)

    def test_precedence_violation(self, two_core_soc):
        constraints = ConstraintSet(precedence=[("a", "b")])
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=2),
                ScheduleSegment(core="b", start=5, end=12, width=2),
            ]
        )
        with pytest.raises(ScheduleError, match="precedence"):
            sched.validate(two_core_soc, constraints)

    def test_precedence_satisfied(self, two_core_soc):
        constraints = ConstraintSet(precedence=[("a", "b")])
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=2),
                ScheduleSegment(core="b", start=10, end=12, width=2),
            ]
        )
        sched.validate(two_core_soc, constraints)

    def test_concurrency_violation(self, two_core_soc):
        constraints = ConstraintSet(concurrency=[("a", "b")])
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=2),
                ScheduleSegment(core="b", start=9, end=12, width=2),
            ]
        )
        with pytest.raises(ScheduleError, match="concurrency"):
            sched.validate(two_core_soc, constraints)

    def test_power_violation(self, two_core_soc):
        constraints = ConstraintSet(power_max=25.0)
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=2),
                ScheduleSegment(core="b", start=0, end=10, width=2),
            ]
        )
        with pytest.raises(ScheduleError, match="power"):
            sched.validate(two_core_soc, constraints)

    def test_preemption_limit_violation(self, two_core_soc):
        constraints = ConstraintSet(max_preemptions={"a": 0})
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=5, width=2),
                ScheduleSegment(core="a", start=10, end=15, width=2),
                ScheduleSegment(core="b", start=0, end=5, width=2),
            ]
        )
        with pytest.raises(ScheduleError, match="preempted"):
            sched.validate(two_core_soc, constraints)

    def test_duration_check_with_expected_times(self, two_core_soc):
        expected = {"a": {3: 20}, "b": {5: 10}}
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=3),
                ScheduleSegment(core="b", start=0, end=10, width=5),
            ]
        )
        with pytest.raises(ScheduleError, match="under-tested"):
            sched.validate(two_core_soc, expected_times=expected)

    def test_describe_contains_core_lines(self):
        sched = _schedule(
            [
                ScheduleSegment(core="a", start=0, end=10, width=3),
                ScheduleSegment(core="b", start=0, end=10, width=5),
            ]
        )
        text = sched.describe()
        assert "a:" in text and "b:" in text and "makespan" in text


# ----------------------------------------------------------------------
# Mutation tests: corrupting one thing in a golden schedule is rejected
# ----------------------------------------------------------------------
GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "golden_makespans.json",
)


class _Golden:
    """A golden paper schedule plus constraints it meets with no room to spare.

    The power cap is the schedule's own peak power, and the one precedence
    edge runs between two cores where the second starts exactly when the
    first ends, so each corruption below must be caught by the check it
    targets rather than slip under a loose bound.
    """

    def __init__(self, soc_name: str, width: int) -> None:
        self.soc = get_benchmark(soc_name)
        self.width = width
        self.schedule = run_paper_scheduler(self.soc, width)
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)["fingerprints"][f"{soc_name}/paper/{width}"]
        assert schedule_fingerprint(self.schedule) == golden
        self.by_core = {
            core: self.schedule.segments_for(core) for core in self.schedule.scheduled_cores
        }
        ends = {core: segments[-1].end for core, segments in self.by_core.items()}
        starts = {core: segments[0].start for core, segments in self.by_core.items()}
        self.pair = next(
            (before, after)
            for before in sorted(ends, key=lambda core: (ends[core], core))
            for after in sorted(starts)
            if starts[after] == ends[before]
            and len(self.by_core[before]) == len(self.by_core[after]) == 1
        )
        self.constraints = ConstraintSet(
            precedence=[self.pair], power_max=self.schedule.peak_power(self.soc)
        )
        sets = build_rectangle_sets(self.soc, SchedulerConfig().max_core_width)
        self.expected_times = {
            core: {segments[0].width: sets[core].time_at(segments[0].width)}
            for core, segments in self.by_core.items()
        }

    def validate(self, schedule: TestSchedule) -> None:
        schedule.validate(self.soc, self.constraints, self.expected_times)

    def rebuilt(self, segments) -> TestSchedule:
        return _schedule(segments, width=self.width, name=self.schedule.soc_name)

    def replaced(self, old: ScheduleSegment, *new: ScheduleSegment) -> TestSchedule:
        kept = [segment for segment in self.schedule.segments if segment != old]
        return self.rebuilt(kept + list(new))

    def swapped(self, first: str, second: str) -> TestSchedule:
        """Cores ``first`` and ``second`` (one segment each) trade slots."""
        relabel = {first: second, second: first}
        return self.rebuilt(
            dataclasses.replace(segment, core=relabel.get(segment.core, segment.core))
            for segment in self.schedule.segments
        )


def _overlap(golden: _Golden) -> TestSchedule:
    # Split one segment into two pieces that share a single cycle, at an
    # instant with enough free wires that the TAM capacity still holds.
    for segment in golden.schedule.segments:
        for time, in_use in golden.schedule.width_profile():
            if segment.start < time < segment.end - 1 and in_use + segment.width <= golden.width:
                return golden.replaced(
                    segment,
                    dataclasses.replace(segment, end=time + 1),
                    dataclasses.replace(segment, start=time),
                )
    raise AssertionError("no instant with room for a one-cycle overlap")


def _width_overflow(golden: _Golden) -> TestSchedule:
    # One wire more than the free wires around the first segment allow
    # (every segment start is a breakpoint of the width profile).
    segment = golden.schedule.segments[0]
    used = max(
        in_use
        for time, in_use in golden.schedule.width_profile()
        if segment.start <= time < segment.end
    )
    wider = segment.width + golden.width - used + 1
    return golden.replaced(segment, dataclasses.replace(segment, width=wider))


def _power_breach(golden: _Golden) -> TestSchedule:
    # Two cores trade slots, so the wires in use never change, but a
    # high-power core now runs beside others and lifts the total over the cap.
    singles = sorted(
        core
        for core, segments in golden.by_core.items()
        if len(segments) == 1 and core not in golden.pair
    )
    for hot in singles:
        for cold in singles:
            swapped = golden.swapped(hot, cold)
            if swapped.peak_power(golden.soc) > golden.constraints.power_max:
                return swapped
    raise AssertionError("no slot swap breaches the power cap")


def _precedence_inversion(golden: _Golden) -> TestSchedule:
    # The successor takes the predecessor's slot and vice versa.
    return golden.swapped(*golden.pair)


def _dropped_core(golden: _Golden) -> TestSchedule:
    dropped = golden.schedule.segments[-1].core
    return golden.rebuilt(s for s in golden.schedule.segments if s.core != dropped)


def _under_tested(golden: _Golden) -> TestSchedule:
    segment = golden.schedule.segments[0]
    return golden.replaced(segment, dataclasses.replace(segment, end=segment.end - 1))


MUTATIONS = {
    "overlap": (_overlap, "overlapping segments"),
    "width-overflow": (_width_overflow, "TAM width exceeded"),
    "power-breach": (_power_breach, "power constraint violated"),
    "precedence-inversion": (_precedence_inversion, "precedence violated"),
    "dropped-core": (_dropped_core, "does not test cores"),
    "under-tested": (_under_tested, "under-tested"),
}


@pytest.fixture(scope="module", params=[("d695", 32), ("p93791", 64)], ids=lambda p: p[0])
def golden(request):
    return _Golden(*request.param)


class TestValidateMutations:
    """Every single corruption of a golden schedule raises ``ScheduleError``."""

    def test_golden_schedule_meets_its_tight_constraints(self, golden):
        golden.validate(golden.schedule)

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_corruption_is_rejected(self, golden, mutation):
        corrupt, message = MUTATIONS[mutation]
        corrupted = corrupt(golden)
        assert corrupted.segments != golden.schedule.segments
        with pytest.raises(ScheduleError, match=message):
            golden.validate(corrupted)
