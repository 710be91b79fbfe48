"""Property tests pinning the wrapper-curve kernel to the reference BFD path.

The single-pass kernel (:mod:`repro.wrapper.curve`) must agree *exactly*
with the per-width reference implementation
(:func:`repro.wrapper.design_wrapper.design_wrapper` and the memoised
staircase helpers below) -- every scan-in/scan-out length, every staircase
value, every Pareto point, on every core.  The randomized cases here are
hypothesis-style: a seeded generator draws random scan-chain multisets and
I/O counts so the analytic water-filling distributor is exercised across
tie-break and saturation corners that the benchmark SOCs never hit; cores
on the boundaries of the closed-form tail are pinned to widths 1..128, and
a Hypothesis property draws its own.  The bidir-free step's closed form is
pinned to a ``(load, index)`` LPT heap and a one-cell-at-a-time fill.
"""

import heapq
import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.wrapper.curve as curve_module
from repro.soc.benchmarks import get_benchmark
from repro.soc.core import Core
from repro.wrapper.curve import (
    CURVE_TABLE_FIELDS,
    WrapperCurve,
    clear_curve_cache,
    curve_cache_info,
    wrapper_curve,
)
from repro.wrapper.design_wrapper import design_wrapper


def testing_time(core: Core, scan_lengths: tuple) -> int:
    """``T = (1 + max(si, so)) * p + min(si, so)``."""
    return (1 + max(scan_lengths)) * core.patterns + min(scan_lengths)


@lru_cache(maxsize=65536)
def reference_scan_lengths(core: Core, width: int) -> tuple:
    """``(si, so)`` of the reference BFD design with exactly ``width`` chains."""
    design = design_wrapper(core, width)
    return design.scan_in_length, design.scan_out_length


@lru_cache(maxsize=65536)
def reference_best_width(core: Core, width: int) -> int:
    """The chain count ``w' <= width`` whose reference design tests fastest."""
    if width == 1:
        return 1
    previous = reference_best_width(core, width - 1)
    if testing_time(core, reference_scan_lengths(core, width)) < testing_time(
        core, reference_scan_lengths(core, previous)
    ):
        return width
    return previous


def assert_curve_matches_reference(core: Core, max_width: int) -> None:
    """Pin every kernel quantity to the reference BFD design at each width:
    first the kernel's per-width step, then the staircase it builds."""
    data = curve_module._CurveData(core)
    for width in range(1, max_width + 1):
        assert data.step(width) == reference_scan_lengths(
            core, width
        ), f"{core.name}: raw scan lengths diverge at width {width}"
    curve = wrapper_curve(core, max_width)
    for width in range(1, max_width + 1):
        best = reference_best_width(core, width)
        assert curve.best_width(width) == best
        assert curve.time(width) == testing_time(core, reference_scan_lengths(core, best))
        assert curve.scan_lengths(width) == reference_scan_lengths(core, best)


def random_core(rng: random.Random, index: int) -> Core:
    """One random core: random scan-chain multiset and I/O counts."""
    while True:
        num_chains = rng.randint(0, 12)
        chains = tuple(rng.randint(1, 400) for _ in range(num_chains))
        inputs = rng.randint(0, 150)
        outputs = rng.randint(0, 150)
        # Half the cores have no bidir cells: they take the bin-load path.
        bidirs = rng.choice((0, rng.randint(0, 80)))
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


#: Cores on the corners of both kernel paths.
EDGE_CORES = [
    Core("ties", inputs=7, outputs=7, bidirs=5, patterns=2,
         scan_chains=(50,) * 8 + (25,) * 4),
    # The bidir-free twin: the bin-load path over the same tied loads.
    Core("ties-no-bidirs", inputs=7, outputs=7, patterns=2,
         scan_chains=(50,) * 8 + (25,) * 4),
    Core("no-inputs", inputs=0, outputs=19, patterns=3,
         scan_chains=(40, 40, 33, 7, 7, 1)),
    Core("no-outputs", inputs=23, outputs=0, patterns=3,
         scan_chains=(40, 40, 33, 7, 7, 1)),
    # No chains: the load list is empty at every width.
    Core.combinational("comb-no-bidirs", inputs=23, outputs=9, patterns=11),
]


class TestKernelEqualsReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_cores_match_reference(self, seed):
        rng = random.Random(1000 + seed)
        for index in range(25):
            core = random_core(rng, index)
            max_width = rng.choice((1, 2, 3, 7, 17, 33, 64))
            assert_curve_matches_reference(core, max_width)

    @pytest.mark.parametrize("soc_name", ["d695", "p93791"])
    def test_benchmark_cores_match_reference_across_full_staircase(self, soc_name):
        # Every ITC'02 core is bidir-free: both SOCs run the bin-load path.
        soc = get_benchmark(soc_name)
        for core in soc.cores:
            assert_curve_matches_reference(core, 64)

    @pytest.mark.parametrize("core", EDGE_CORES, ids=[c.name for c in EDGE_CORES])
    def test_edge_core_matches_reference(self, core):
        # Many identical chains and cell counts that leave a remainder after
        # water-filling: the analytic distributor must reproduce the heap's
        # (secondary key, index) tie-break exactly, and the bin-load path
        # must not depend on it.
        clear_curve_cache()
        assert_curve_matches_reference(core, 128)


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
        # Growing to 32 evaluates what one 32-wide build evaluates: no
        # width of the 8-wide prefix runs twice.
        grown = curve_cache_info().widths_computed
        clear_curve_cache()
        wrapper_curve(core, 32)
        assert grown == curve_cache_info().widths_computed
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
        data = curve_module._CurveData(core)
        longest = max(core.scan_chains, default=0)
        for width in range(expected or 129, 129):
            assert data.step(width) == (longest, longest)
            assert data.time_bound(width) == testing_time(core, (longest, longest))


@st.composite
def cores(draw, with_bidirs=True):
    """Random cores, biased towards the tail and tie-break corners."""
    chains = draw(
        st.lists(st.integers(min_value=1, max_value=draw(st.sampled_from((4, 60)))),
                 max_size=20)
    )
    io = st.integers(min_value=0, max_value=draw(st.sampled_from((3, 40, 200))))
    inputs, outputs = draw(io), draw(io)
    # Half the draws have no bidir cells: they take the bin-load path.
    bidirs = draw(io) if with_bidirs and draw(st.booleans()) else 0
    assume(chains or inputs + outputs + bidirs)
    return Core("drawn", inputs=inputs, outputs=outputs, bidirs=bidirs,
                patterns=draw(st.integers(min_value=1, max_value=40)),
                scan_chains=tuple(chains))


def table_bytes(core: Core) -> list:
    """The cached per-core table of ``core``, as bytes per field."""
    data = curve_module._DATA[core]
    return [getattr(data, name).tobytes() for name in CURVE_TABLE_FIELDS]


class TestGrowth:
    """Growing a curve in steps gives the table a single build would."""

    CORES = [core for core, _ in TestClosedFormTail.BOUNDARY_CORES] + EDGE_CORES

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

    @given(
        core=cores(),
        widths=st.lists(st.integers(min_value=1, max_value=130), min_size=1, max_size=6),
    )
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_growth_matches_one_build(self, core, widths):
        # Any order of requests, narrowing ones included, leaves the table
        # and the evaluated count of one build at the widest request, even
        # when a skipped run crosses an earlier request's width.
        grown = self.built(core, *widths), curve_module._DATA[core].evaluated
        once = self.built(core, max(widths)), curve_module._DATA[core].evaluated
        assert grown == once

    @pytest.mark.parametrize("core", CORES, ids=[c.name for c in CORES])
    def test_growth_only_appends_to_the_exported_table(self, core):
        # Entries already exported for narrower widths never change when
        # the curve grows, so a snapshot stays a valid prefix.
        for exported_width in (8, 64):
            exported = self.built(core, exported_width)
            wrapper_curve(core, 128)
            grown = table_bytes(core)
            assert grown == self.built(core, 128)
            for before, after in zip(exported, grown):
                assert after[: len(before)] == before


class TestKernelProperty:
    @given(core=cores(), max_width=st.integers(min_value=1, max_value=96))
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_design_wrapper(self, core, max_width):
        clear_curve_cache()
        assert_curve_matches_reference(core, max_width)


def documented_bound(core: Core, width: int) -> int:
    """The dominance bound as the kernel documents it: every chain holds at
    least the longest internal chain, and ``width`` chains carry all the
    scan-in and all the scan-out bits."""
    longest = max(core.scan_chains, default=0)
    cells = sum(core.scan_chains)
    si = max(longest, -(-(cells + core.inputs + core.bidirs) // width))
    so = max(longest, -(-(cells + core.outputs + core.bidirs) // width))
    return testing_time(core, (si, so))


class TestTimeBound:
    """The bound that settles dominated widths is the documented one, and
    it never exceeds the time of the design it stands in for."""

    @given(core=cores())
    @settings(max_examples=60, deadline=None)
    def test_bound_is_at_most_the_step_time(self, core):
        data = curve_module._CurveData(core)
        for width in range(1, 97):
            bound = data.time_bound(width)
            assert bound == documented_bound(core, width)
            assert bound <= testing_time(core, data.step(width))

    @pytest.mark.parametrize("core", EDGE_CORES, ids=[c.name for c in EDGE_CORES])
    def test_settled_widths_are_not_evaluated(self, core):
        clear_curve_cache()
        curve = wrapper_curve(core, 128)
        data = curve_module._DATA[core]
        last = min(128, data.tail_width or 128)
        settled = [
            width
            for width in range(2, last + 1)
            if data.time_bound(width) >= curve.time(width - 1)
        ]
        assert data.evaluated == last - len(settled)


def reference_lpt_loads(chains: tuple, width: int) -> list:
    """Per-bin loads of LPT over a ``(load, index)`` heap: each chain,
    longest first, joins the least-loaded bin (lowest index on ties)."""
    loads = [0] * width
    heap = [(0, index) for index in range(width)]
    for length in sorted(chains, reverse=True):
        load, index = heapq.heappop(heap)
        loads[index] = load + length
        heapq.heappush(heap, (loads[index], index))
    return loads


def reference_longest_after_fill(loads: list, cells: int) -> int:
    """Longest chain after adding ``cells`` cells one at a time, each to the
    currently shortest chain."""
    heap = list(loads)
    heapq.heapify(heap)
    for _ in range(cells):
        heapq.heapreplace(heap, heap[0] + 1)
    return max(heap)


class TestClosedFormStep:
    """A bidir-free core's step is ``max(top, ceil((sum + c) / w))`` per
    phase: a unit-cell fill onto the minimum chain is an optimal fill."""

    @given(core=cores(with_bidirs=False), width=st.integers(min_value=1, max_value=96))
    @settings(max_examples=200, deadline=None)
    def test_step_is_the_fill_of_the_lpt_loads(self, core, width):
        data = curve_module._CurveData(core)
        loads = reference_lpt_loads(core.scan_chains, width)
        expected = (
            reference_longest_after_fill(loads, core.inputs),
            reference_longest_after_fill(loads, core.outputs),
        )
        assert data.step(width) == expected
        assert data._scan_floor(max(loads), width) == expected

    @given(core=cores(with_bidirs=False))
    @settings(max_examples=60, deadline=None)
    def test_bound_is_exact_from_the_chain_count_on(self, core):
        # At ``w >= n`` every chain sits alone in a bin, so the LPT top is
        # the longest chain and the bound is the step's own time.
        data = curve_module._CurveData(core)
        for width in range(max(1, len(core.scan_chains)), 97):
            assert data.time_bound(width) == testing_time(core, data.step(width))
