"""Property-based tests (hypothesis) for the core invariants of the library.

These cover the data structures and algorithms whose correctness the whole
reproduction rests on: wrapper design, Pareto staircases, the scheduler's
structural guarantees, the lower bound, and the file format round trip.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lower_bounds import lower_bound
from repro.core.rectangles import RectangleSet, build_rectangle_sets
from repro.core.scheduler import run_paper_scheduler
from repro.soc.constraints import ConstraintSet
from repro.soc.core import Core
from repro.soc.itc02 import format_soc, parse_soc_with_constraints
from repro.soc.soc import Soc
from repro.wrapper.design_wrapper import design_wrapper, testing_time
from repro.wrapper.pareto import pareto_points, preferred_width, testing_time_curve

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

core_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8
)


@st.composite
def cores(draw, name=None):
    """A random, structurally valid core."""
    scan_chains = draw(
        st.lists(st.integers(min_value=1, max_value=40), min_size=0, max_size=6)
    )
    inputs = draw(st.integers(min_value=0, max_value=30))
    outputs = draw(st.integers(min_value=0, max_value=30))
    bidirs = draw(st.integers(min_value=0, max_value=5))
    if inputs + outputs + bidirs + len(scan_chains) == 0:
        inputs = 1
    return Core(
        name=name or draw(core_names),
        inputs=inputs,
        outputs=outputs,
        bidirs=bidirs,
        patterns=draw(st.integers(min_value=1, max_value=50)),
        scan_chains=tuple(scan_chains),
    )


@st.composite
def socs(draw, min_cores=2, max_cores=5):
    count = draw(st.integers(min_value=min_cores, max_value=max_cores))
    built = tuple(draw(cores(name=f"core{i}")) for i in range(count))
    return Soc(name="prop-soc", cores=built)


# ---------------------------------------------------------------------------
# Wrapper design / Pareto properties
# ---------------------------------------------------------------------------


class TestWrapperProperties:
    @given(core=cores(), width=st.integers(min_value=1, max_value=48))
    @settings(max_examples=60, deadline=None)
    def test_wrapper_places_every_cell(self, core, width):
        design = design_wrapper(core, width)
        assert sum(c.internal_length for c in design.chains) == core.scan_cells
        assert sum(c.input_cells for c in design.chains) == core.inputs
        assert sum(c.output_cells for c in design.chains) == core.outputs
        assert sum(c.bidir_cells for c in design.chains) == core.bidirs
        assert design.used_width <= width

    @given(core=cores())
    @settings(max_examples=60, deadline=None)
    def test_testing_time_curve_is_non_increasing(self, core):
        curve = testing_time_curve(core, 32)
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        assert all(value > 0 for value in curve)

    @given(core=cores())
    @settings(max_examples=60, deadline=None)
    def test_pareto_points_are_consistent_with_curve(self, core):
        curve = testing_time_curve(core, 32)
        points = pareto_points(core, 32)
        # Times strictly decrease and every point matches the curve.
        times = [p.time for p in points]
        assert all(a > b for a, b in zip(times, times[1:]))
        for point in points:
            assert curve[point.width - 1] == point.time
        # The last point achieves the curve minimum.
        assert points[-1].time == curve[-1]

    @given(
        core=cores(),
        percent=st.floats(min_value=0, max_value=60, allow_nan=False),
        delta=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_preferred_width_bound(self, core, percent, delta):
        width = preferred_width(core, max_width=32, percent=percent, delta=delta)
        curve = testing_time_curve(core, 32)
        assert 1 <= width <= 32
        top = pareto_points(core, 32)[-1].width
        within_percent = curve[width - 1] <= (1 + percent / 100) * curve[-1] + 1e-9
        assert within_percent or width == top

    @given(core=cores(), width=st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_rectangle_set_time_matches_wrapper(self, core, width):
        rect_set = RectangleSet(core, max_width=32)
        assert rect_set.time_at(width) == testing_time(core, rect_set.effective_width(width))
        assert rect_set.effective_width(width) <= width


# ---------------------------------------------------------------------------
# Scheduler properties
# ---------------------------------------------------------------------------


class TestSchedulerProperties:
    @given(soc=socs(), width=st.integers(min_value=1, max_value=24))
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_schedule_is_valid_and_respects_lower_bound(self, soc, width):
        schedule = run_paper_scheduler(soc, width)
        schedule.validate(soc)
        assert schedule.peak_width() <= width
        assert schedule.makespan >= lower_bound(soc, width)

    @given(
        soc=socs(),
        width=st.integers(min_value=2, max_value=16),
        limit=st.integers(min_value=0, max_value=3),
    )
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_preemptive_schedule_is_valid(self, soc, width, limit):
        constraints = ConstraintSet.for_soc(soc, default_preemptions=limit)
        schedule = run_paper_scheduler(soc, width, constraints=constraints)
        schedule.validate(soc, constraints)
        for core in soc.core_names:
            assert schedule.preemptions_of(core) <= limit

    @given(soc=socs(min_cores=2, max_cores=4), width=st.integers(min_value=2, max_value=16))
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_precedence_constraint_always_honoured(self, soc, width):
        names = soc.core_names
        constraints = ConstraintSet.for_soc(soc, precedence=[(names[0], names[1])])
        schedule = run_paper_scheduler(soc, width, constraints=constraints)
        schedule.validate(soc, constraints)
        assert (
            schedule.core_summary(names[1]).first_begin
            >= schedule.core_summary(names[0]).last_end
        )

    @given(soc=socs(min_cores=2, max_cores=4), width=st.integers(min_value=2, max_value=16))
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_power_budget_always_honoured(self, soc, width):
        power_max = 1.05 * soc.max_test_power()
        constraints = ConstraintSet.for_soc(soc, power_max=power_max)
        schedule = run_paper_scheduler(soc, width, constraints=constraints)
        schedule.validate(soc, constraints)
        assert schedule.peak_power(soc) <= power_max + 1e-9

    @given(soc=socs(min_cores=2, max_cores=4))
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_area_conservation(self, soc):
        """Occupied TAM area equals the sum of the packed rectangles' areas."""
        schedule = run_paper_scheduler(soc, 8)
        sets = build_rectangle_sets(soc)
        expected = 0
        for core in soc.core_names:
            summary = schedule.core_summary(core)
            width = summary.widths[0]
            expected += summary.total_time * width
        assert schedule.occupied_area == expected


# ---------------------------------------------------------------------------
# Lower bound and file-format properties
# ---------------------------------------------------------------------------


class TestMiscProperties:
    @given(soc=socs(), width=st.integers(min_value=1, max_value=32))
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_positive_and_monotone_in_width(self, soc, width):
        bound = lower_bound(soc, width)
        assert bound > 0
        if width > 1:
            assert bound <= lower_bound(soc, width - 1)

    @given(soc=socs(), width=st.integers(min_value=1, max_value=24))
    @settings(max_examples=30, deadline=None)
    def test_area_bound_scaling(self, soc, width):
        sets = build_rectangle_sets(soc)
        total = sum(sets[c].min_area for c in soc.core_names)
        assert lower_bound(soc, width) >= math.ceil(total / width)

    @given(soc=socs())
    @settings(max_examples=40, deadline=None)
    def test_format_parse_round_trip(self, soc):
        text = format_soc(soc)
        parsed, _ = parse_soc_with_constraints(text)
        assert parsed == soc
