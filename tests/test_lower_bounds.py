"""Tests for the testing-time lower bound (repro.core.lower_bounds)."""

import math

import pytest

from repro.core.lower_bounds import area_lower_bound, bottleneck_lower_bound, lower_bound
from repro.core.rectangles import build_rectangle_sets
from repro.core.scheduler import run_paper_scheduler
from repro.soc.core import Core
from repro.soc.soc import Soc


class TestComponents:
    def test_area_bound_formula(self, small_soc):
        sets = build_rectangle_sets(small_soc)
        total_area = sum(sets[c].min_area for c in small_soc.core_names)
        for width in (1, 3, 7, 16):
            assert area_lower_bound(small_soc, width) == math.ceil(total_area / width)

    def test_bottleneck_bound_formula(self, small_soc):
        sets = build_rectangle_sets(small_soc)
        for width in (1, 3, 7, 16):
            expected = max(sets[c].time_at(width) for c in small_soc.core_names)
            assert bottleneck_lower_bound(small_soc, width) == expected

    def test_lower_bound_is_max_of_components(self, small_soc):
        for width in (1, 2, 4, 8, 16, 32):
            assert lower_bound(small_soc, width) == max(
                area_lower_bound(small_soc, width),
                bottleneck_lower_bound(small_soc, width),
            )

    def test_invalid_width_rejected(self, small_soc):
        with pytest.raises(ValueError):
            lower_bound(small_soc, 0)
        with pytest.raises(ValueError):
            area_lower_bound(small_soc, -3)
        with pytest.raises(ValueError):
            bottleneck_lower_bound(small_soc, 0)

    def test_precomputed_rectangle_sets_accepted(self, small_soc):
        sets = build_rectangle_sets(small_soc, max_width=32)
        assert lower_bound(small_soc, 8, max_core_width=32, rectangle_sets=sets) == lower_bound(
            small_soc, 8, max_core_width=32
        )


class TestBehaviour:
    def test_bound_decreases_with_width_until_bottleneck(self, small_soc):
        bounds = [lower_bound(small_soc, w) for w in range(1, 40)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_bottleneck_dominates_for_wide_tams(self):
        # One enormous core plus a tiny one: at wide TAMs the big core's
        # saturated time dominates the area bound.
        cores = (
            Core("big", inputs=2, outputs=2, patterns=50, scan_chains=(200, 3, 3)),
            Core("tiny", inputs=1, outputs=1, patterns=2, scan_chains=(2,)),
        )
        soc = Soc("bottleneck", cores)
        wide = lower_bound(soc, 64)
        assert wide == bottleneck_lower_bound(soc, 64)
        assert wide > area_lower_bound(soc, 64)

    def test_area_dominates_for_narrow_tams(self, d695_soc):
        assert lower_bound(d695_soc, 16) == area_lower_bound(d695_soc, 16)

    def test_any_schedule_respects_the_bound(self, small_soc, d695_soc):
        for soc in (small_soc, d695_soc):
            for width in (4, 16, 32):
                schedule = run_paper_scheduler(soc, width)
                assert schedule.makespan >= lower_bound(soc, width)

    def test_halving_width_roughly_doubles_area_bound(self, d695_soc):
        narrow = area_lower_bound(d695_soc, 16)
        wide = area_lower_bound(d695_soc, 32)
        assert narrow == pytest.approx(2 * wide, rel=1e-3)
