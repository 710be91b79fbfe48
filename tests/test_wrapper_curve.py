"""Property tests pinning the wrapper-curve kernel to the reference BFD path.

The single-pass kernel (:mod:`repro.wrapper.curve`) must agree *exactly*
with the per-width reference implementation
(:func:`repro.wrapper.design_wrapper.design_wrapper` and its memoised
helpers) -- every scan-in/scan-out length, every staircase value, every
Pareto point, on every core.  The randomized cases here are
hypothesis-style: a seeded generator draws random scan-chain multisets and
I/O counts so the analytic water-filling distributor is exercised across
tie-break and saturation corners that the benchmark SOCs never hit; cores
on the boundaries of the closed-form tail are pinned to widths 1..128, and
a Hypothesis property draws its own.
"""

import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.wrapper.curve as curve_module
from repro.soc.benchmarks import get_benchmark
from repro.soc.core import Core
from repro.wrapper.curve import (
    WrapperCurve,
    clear_curve_cache,
    curve_cache_info,
    export_curve_tables,
    seed_curve_table,
    wrapper_curve,
)

# The reference module object (the package re-exports a function under the
# same name, so plain attribute imports would shadow it).
import repro.wrapper.design_wrapper  # noqa: F401

reference = sys.modules["repro.wrapper.design_wrapper"]


def assert_curve_matches_reference(core: Core, max_width: int) -> None:
    """Pin every kernel quantity to the reference BFD design at each width."""
    curve = wrapper_curve(core, max_width)
    for width in range(1, max_width + 1):
        design = reference.design_wrapper(core, width)
        assert curve.raw_scan_lengths(width) == (
            design.scan_in_length,
            design.scan_out_length,
        ), f"{core.name}: raw scan lengths diverge at width {width}"
        assert curve.raw_time(width) == design.testing_time
        best = reference._best_width_upto(core, width)
        assert curve.best_width(width) == best
        assert curve.time(width) == reference._raw_testing_time(core, best)
        assert curve.scan_lengths(width) == reference._scan_lengths_cached(core, best)


def random_core(rng: random.Random, index: int) -> Core:
    """One random core: random scan-chain multiset and I/O counts."""
    while True:
        num_chains = rng.randint(0, 12)
        chains = tuple(rng.randint(1, 400) for _ in range(num_chains))
        inputs = rng.randint(0, 150)
        outputs = rng.randint(0, 150)
        bidirs = rng.randint(0, 80)
        if inputs + outputs + bidirs + num_chains == 0:
            continue
        return Core(
            name=f"random-{index}",
            inputs=inputs,
            outputs=outputs,
            bidirs=bidirs,
            patterns=rng.randint(1, 50),
            scan_chains=chains,
        )


class TestKernelEqualsReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_cores_match_reference(self, seed):
        rng = random.Random(1000 + seed)
        for index in range(25):
            core = random_core(rng, index)
            max_width = rng.choice((1, 2, 3, 7, 17, 33, 64))
            assert_curve_matches_reference(core, max_width)

    def test_d695_cores_match_reference_across_full_staircase(self):
        soc = get_benchmark("d695")
        for core in soc.cores:
            assert_curve_matches_reference(core, 64)

    def test_tie_break_heavy_core_matches_reference(self):
        # Many identical chains and cell counts that leave a remainder after
        # water-filling: the analytic distributor must reproduce the heap's
        # (secondary key, index) tie-break exactly.
        core = Core(
            "ties",
            inputs=7,
            outputs=7,
            bidirs=5,
            patterns=2,
            scan_chains=(50,) * 8 + (25,) * 4,
        )
        assert_curve_matches_reference(core, 64)


class TestWrapperCurveApi:
    @pytest.fixture
    def core(self):
        return Core("c", inputs=12, outputs=20, patterns=15, scan_chains=(14, 10, 8, 8, 4))

    def test_times_is_the_non_increasing_staircase(self, core):
        curve = wrapper_curve(core, 64)
        times = curve.times
        assert len(times) == 64
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_pareto_widths_are_the_strict_steps(self, core):
        curve = wrapper_curve(core, 64)
        times = curve.times
        expected = [1] + [
            w for w in range(2, 65) if times[w - 1] < times[w - 2]
        ]
        assert list(curve.pareto_widths) == expected

    def test_effective_width_binary_search_matches_linear_scan(self, core):
        curve = wrapper_curve(core, 64)
        widths = list(curve.pareto_widths)
        for query in range(1, 80):
            expected = max((w for w in widths if w <= query), default=widths[0])
            assert curve.effective_width(query) == expected

    def test_first_width_within_matches_linear_scan(self, core):
        curve = wrapper_curve(core, 64)
        times = curve.times
        for percent in (0, 1, 5, 10, 25, 50):
            target = (1 + percent / 100) * times[-1]
            expected = next(w for w in range(1, 65) if times[w - 1] <= target)
            assert curve.first_width_within(target) == expected

    def test_invalid_widths_raise(self, core):
        curve = wrapper_curve(core, 8)
        with pytest.raises(ValueError):
            curve.time(0)
        with pytest.raises(ValueError):
            curve.time(9)
        with pytest.raises(ValueError):
            curve.effective_width(0)
        with pytest.raises(ValueError):
            wrapper_curve(core, 0)

    def test_min_area_over_pareto_points(self, core):
        curve = wrapper_curve(core, 64)
        assert curve.min_area == min(p.area for p in curve.pareto_points())

    def test_pareto_points_are_memoised(self, core):
        curve = wrapper_curve(core, 64)
        assert curve.pareto_points() is curve.pareto_points()


class TestCurveCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_curve_cache()
        yield
        clear_curve_cache()

    def test_views_are_cached(self):
        core = Core("c", inputs=3, outputs=3, patterns=2, scan_chains=(9, 5))
        first = wrapper_curve(core, 16)
        second = wrapper_curve(core, 16)
        assert first is second
        info = curve_cache_info()
        assert info.hits == 1 and info.misses == 1

    def test_wider_request_grows_instead_of_recomputing(self):
        core = Core("c", inputs=3, outputs=3, patterns=2, scan_chains=(9, 5))
        narrow = wrapper_curve(core, 8)
        wide = wrapper_curve(core, 32)
        assert curve_cache_info().cores == 1
        assert curve_cache_info().widths_computed == 32
        assert wide.times[:8] == narrow.times
        # The narrower view still answers correctly after the growth.
        assert narrow.max_width == 8
        assert narrow.effective_width(100) <= 8

    def test_clear_resets_statistics(self):
        core = Core("c", inputs=3, outputs=3, patterns=2, scan_chains=(9, 5))
        wrapper_curve(core, 8)
        clear_curve_cache()
        info = curve_cache_info()
        assert (info.hits, info.misses, info.cores, info.widths_computed) == (0, 0, 0, 0)

    def test_isinstance_of_wrapper_curve(self):
        core = Core("c", inputs=1, outputs=1, patterns=1)
        assert isinstance(wrapper_curve(core, 4), WrapperCurve)


def tail_width(core: Core) -> object:
    """The first width of the kernel's closed-form tail (``None``: never)."""
    return curve_module._CurveData(core).tail_width


class TestClosedFormTail:
    """Cores whose tail starts on a boundary the kernel must get right."""

    # (core, first tail width): w0 = max(n, ceil((sum + I + O + B) / L)).
    BOUNDARY_CORES = [
        # 28 + 12 = 40 cells over L = 10: ceil is 4 = n.
        (Core("at-n", inputs=5, outputs=4, bidirs=3, patterns=7,
              scan_chains=(10, 6, 6, 6)), 4),
        # One more bidir cell: ceil is 5 = n + 1.
        (Core("at-n-plus-1", inputs=5, outputs=4, bidirs=4, patterns=7,
              scan_chains=(10, 6, 6, 6)), 5),
        # 384 cells over L = 3: the tail starts exactly at width 128.
        (Core("at-128", inputs=150, outputs=150, bidirs=81, patterns=3,
              scan_chains=(3,)), 128),
        # Past every width tested here.
        (Core("past-128", inputs=300, outputs=280, bidirs=9, patterns=3,
              scan_chains=(2, 1)), 296),
        (Core("single-chain", inputs=5, outputs=5, patterns=3,
              scan_chains=(100,)), 2),
        # No chains at all, so no tail: every width runs the kernel.
        (Core.combinational("comb", inputs=23, outputs=9, patterns=11, bidirs=4), None),
        # Only wrapper-free chains: the tail holds from width n on.
        (Core("chains-only", inputs=0, outputs=0, patterns=2,
              scan_chains=(9, 9, 4, 1)), 4),
    ]

    @pytest.mark.parametrize(
        "core, expected", BOUNDARY_CORES, ids=[c.name for c, _ in BOUNDARY_CORES]
    )
    def test_boundary_core_matches_reference_to_128(self, core, expected):
        assert tail_width(core) == expected
        clear_curve_cache()
        assert_curve_matches_reference(core, 128)

    @pytest.mark.parametrize(
        "core, expected", BOUNDARY_CORES, ids=[c.name for c, _ in BOUNDARY_CORES]
    )
    def test_tail_is_the_lower_bound_design(self, core, expected):
        curve = wrapper_curve(core, 128)
        longest = max(core.scan_chains, default=0)
        for width in range(expected or 129, 129):
            assert curve.raw_scan_lengths(width) == (longest, longest)
            assert curve.raw_time(width) == (1 + longest) * core.patterns + longest


def table_bytes(core: Core) -> list:
    """The exported per-core table of ``core``, as bytes per field."""
    (table,) = [fields for cached, fields in export_curve_tables() if cached == core]
    return [field.tobytes() for field in table]


class TestGrowth:
    """Growing a curve in steps gives the table a single build would."""

    CORES = [core for core, _ in TestClosedFormTail.BOUNDARY_CORES] + [
        Core("ties", inputs=7, outputs=7, bidirs=5, patterns=2,
             scan_chains=(50,) * 8 + (25,) * 4),
    ]

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_curve_cache()
        yield
        clear_curve_cache()

    def built(self, core: Core, *widths: int) -> list:
        clear_curve_cache()
        for width in widths:
            wrapper_curve(core, width)
        return table_bytes(core)

    @pytest.mark.parametrize("core", CORES, ids=[c.name for c in CORES])
    def test_growth_paths_match_one_build(self, core):
        assert self.built(core, 8, 64, 128) == self.built(core, 128)
        assert self.built(core, 64, 8) == self.built(core, 64)

    @pytest.mark.parametrize("core", CORES, ids=[c.name for c in CORES])
    def test_exported_table_seeds_and_extends(self, core):
        for seeded_width in (8, 64):
            exported = self.built(core, seeded_width)
            clear_curve_cache()
            assert seed_curve_table(core, exported)
            assert table_bytes(core) == exported
            wrapper_curve(core, 128)
            assert table_bytes(core) == self.built(core, 128)


@st.composite
def cores(draw):
    """Random cores, biased towards the tail and tie-break corners."""
    chains = draw(
        st.lists(st.integers(min_value=1, max_value=draw(st.sampled_from((4, 60)))),
                 max_size=20)
    )
    io = st.integers(min_value=0, max_value=draw(st.sampled_from((3, 40, 200))))
    inputs, outputs, bidirs = draw(io), draw(io), draw(io)
    assume(chains or inputs + outputs + bidirs)
    return Core("drawn", inputs=inputs, outputs=outputs, bidirs=bidirs,
                patterns=draw(st.integers(min_value=1, max_value=40)),
                scan_chains=tuple(chains))


class TestKernelProperty:
    @given(core=cores(), max_width=st.integers(min_value=1, max_value=96))
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_design_wrapper(self, core, max_width):
        clear_curve_cache()
        assert_curve_matches_reference(core, max_width)
