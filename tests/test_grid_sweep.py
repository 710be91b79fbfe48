"""Property and unit tests for the deduplicated best-over-grid sweep.

Two bit-identity contracts are pinned here on randomized SOCs and configs:

* the heap-based candidate selection (the default) produces exactly the
  schedules of the straightforward pool re-scan it replaced (reachable via
  ``SchedulerConfig(use_candidate_heaps=False)``), across non-preemptive,
  preemptive, power- and concurrency-constrained scheduling, with idle
  insertion and width increase on or off, and on crowded SOCs where many
  cores request the same width;
* the deduplicated / pruned grid sweep
  (:func:`repro.core.grid_sweep.run_grid_sweep`) returns exactly the
  schedule *and winning grid point* of the straightforward serial triple
  loop (:func:`repro.core.grid_sweep.run_best_schedule_reference`).

The scheduler's area floor, which ends bounded runs early, is pinned too:
it equals ``W * makespan`` when a run completes, a limit equal to the
makespan never prunes, and a limit one cycle below it always does.
"""

import functools
import math
import multiprocessing
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.perf import schedule_fingerprint
from repro.core import grid_sweep, scheduler
from repro.core.grid_sweep import (
    GridPoint,
    GridSweepState,
    dedupe_grid,
    run_best_schedule_reference,
    run_grid_sweep,
)
from repro.core.rectangles import build_rectangle_sets, soc_plan
from repro.core.scheduler import (
    MakespanLimitExceeded,
    SchedulerConfig,
    SchedulerError,
    run_paper_scheduler,
)
from repro.engine.executor import _prime_soc_pairs
from repro.soc.benchmarks import get_benchmark
from repro.soc.constraints import ConstraintSet
from repro.soc.generator import GeneratorProfile, generate_soc
from repro.soc.soc import Soc
from repro.solvers import ScheduleRequest, Session, get_default_session

# Small profile so each randomized case schedules in milliseconds.
PROFILE = GeneratorProfile(
    min_cores=4,
    max_cores=9,
    max_scan_cells=2500,
    max_scan_chains=12,
    bist_fraction=0.2,
)

# Many cores per requested width: at narrow TAMs most preferred widths
# exceed the total width and share its bucket.
CROWDED_PROFILE = GeneratorProfile(
    min_cores=40,
    max_cores=60,
    max_scan_cells=2500,
    max_scan_chains=12,
    bist_fraction=0.2,
)

SMALL_GRID = dict(percents=(1, 10, 40), deltas=(0, 2), slacks=(0, 3))


def random_constraints(soc: Soc, rng: random.Random) -> ConstraintSet:
    """A random mix of preemption budgets, power caps, precedence and
    concurrency pairs."""
    names = list(soc.core_names)
    limits = {
        name: rng.randint(1, 3) for name in rng.sample(names, len(names) // 2)
    }
    power_max = None
    if rng.random() < 0.5:
        power_max = 1.2 * max(core.test_power for core in soc.cores)
    precedence = ()
    if len(names) >= 2 and rng.random() < 0.5:
        before, after = rng.sample(names, 2)
        precedence = ((before, after),)
    concurrency = ()
    if len(names) >= 2:
        concurrency = tuple(
            tuple(rng.sample(names, 2)) for _ in range(rng.choice((0, 1, 3)))
        )
    return ConstraintSet.for_soc(
        soc,
        precedence=precedence,
        concurrency=concurrency,
        power_max=power_max,
        max_preemptions=limits,
        default_preemptions=rng.choice((0, 0, 2)),
    )


def random_config(rng: random.Random, **overrides) -> SchedulerConfig:
    return SchedulerConfig(
        percent=rng.choice((1, 5, 25, 60)),
        delta=rng.choice((0, 2, 4)),
        insertion_slack=rng.choice((0, 3, 6)),
        strict_priority_resume=rng.random() < 0.3,
        enable_idle_insertion=rng.random() < 0.8,
        enable_width_increase=rng.random() < 0.8,
        **overrides,
    )


class TestHeapSelectCandidate:
    """Heap-based selection is bit-identical to the reference scan."""

    @pytest.mark.parametrize(
        "seed,profile",
        [pytest.param(seed, PROFILE, id=str(seed)) for seed in range(12)]
        + [
            pytest.param(seed, CROWDED_PROFILE, id=f"crowded-{seed}")
            for seed in range(100, 106)
        ],
    )
    def test_randomized_socs_and_constraints(self, seed, profile):
        rng = random.Random(seed)
        soc = generate_soc(seed, name=f"heap-{seed}", profile=profile)
        constraints = random_constraints(soc, rng)
        config = random_config(rng)
        for width in (1, 7, 13, 32, 64):
            heap_schedule = run_paper_scheduler(
                soc, width, constraints=constraints, config=config
            )
            scan_schedule = run_paper_scheduler(
                soc,
                width,
                constraints=constraints,
                config=replace(config, use_candidate_heaps=False),
            )
            assert schedule_fingerprint(heap_schedule) == schedule_fingerprint(
                scan_schedule
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_unconstrained_socs(self, seed):
        # No conflicts of any kind: the bucket walk only reads each top.
        rng = random.Random(seed)
        profile = replace(CROWDED_PROFILE, bist_fraction=0.0)
        soc = generate_soc(seed, name=f"free-{seed}", profile=profile)
        limits = {name: rng.randint(0, 2) for name in rng.sample(soc.core_names, 10)}
        constraints = ConstraintSet.for_soc(soc, max_preemptions=limits)
        config = random_config(rng)
        for width in (1, 7, 13, 32, 64):
            run = scheduler._Scheduler(soc, width, constraints, config)
            assert run._no_conflicts
            scan = scheduler._Scheduler(
                soc, width, constraints, replace(config, use_candidate_heaps=False)
            )
            assert schedule_fingerprint(run.run()) == schedule_fingerprint(scan.run())

    @pytest.mark.parametrize("soc_name", ["d695", "p93791"])
    def test_benchmarks_preemptive(self, soc_name):
        soc = get_benchmark(soc_name)
        constraints = ConstraintSet(default_preemptions=2)
        for width in (16, 64):
            heap_schedule = run_paper_scheduler(soc, width, constraints=constraints)
            scan_schedule = run_paper_scheduler(
                soc,
                width,
                constraints=constraints,
                config=SchedulerConfig(use_candidate_heaps=False),
            )
            assert schedule_fingerprint(heap_schedule) == schedule_fingerprint(
                scan_schedule
            )


class TestGridSweep:
    """The batched sweep matches the serial triple loop, winner included."""

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_socs_match_reference(self, seed):
        rng = random.Random(1000 + seed)
        soc = generate_soc(1000 + seed, name=f"sweep-{seed}", profile=PROFILE)
        constraints = random_constraints(soc, rng) if rng.random() < 0.5 else None
        width = rng.choice((11, 24, 40))
        reference_schedule, reference_point = run_best_schedule_reference(
            soc, width, constraints=constraints, **SMALL_GRID
        )
        outcome = run_grid_sweep(soc, width, constraints=constraints, **SMALL_GRID)
        assert outcome.winner == reference_point
        assert schedule_fingerprint(outcome.schedule) == schedule_fingerprint(
            reference_schedule
        )
        assert outcome.makespan == reference_schedule.makespan
        assert outcome.grid_points == 12
        assert 1 <= outcome.unique_runs <= outcome.grid_points
        assert outcome.makespan >= outcome.lower_bound
        assert outcome.early_exit == (outcome.makespan <= outcome.lower_bound)

    @pytest.mark.parametrize("workers", [0, 1, 2, 5])
    def test_worker_counts_bit_identical(self, workers):
        # The ``best`` solver still accepts a ``workers`` option, but the
        # sweep drains in the calling process: no child process starts and
        # the schedule, winner and statistics are the serial sweep's.
        soc = get_benchmark("p93791")
        serial = run_grid_sweep(soc, 32)
        children = {child.pid for child in multiprocessing.active_children()}
        result = Session().solve(
            ScheduleRequest(
                soc=soc, total_width=32, solver="best", options={"workers": workers}
            )
        )
        assert {child.pid for child in multiprocessing.active_children()} <= children
        assert result.makespan == serial.makespan
        assert dict(result.metadata) == serial.metadata()
        assert schedule_fingerprint(result.schedule) == schedule_fingerprint(
            serial.schedule
        )

    def test_full_default_grid_matches_reference_on_p93791(self):
        soc = get_benchmark("p93791")
        sets = build_rectangle_sets(soc, 64)
        reference_schedule, reference_point = run_best_schedule_reference(
            soc, 64, rectangle_sets=sets, config=SchedulerConfig(use_candidate_heaps=False)
        )
        outcome = run_grid_sweep(soc, 64, rectangle_sets=sets)
        assert outcome.winner == reference_point
        assert schedule_fingerprint(outcome.schedule) == schedule_fingerprint(
            reference_schedule
        )

    def test_dedup_collapses_identical_signatures(self):
        soc = get_benchmark("p93791")
        config = SchedulerConfig()
        sets = build_rectangle_sets(soc, config.max_core_width)
        runs = dedupe_grid(
            soc, 64, config, sets, (1, 5, 10, 25, 40, 60, 75), (0, 2, 4), (0, 3, 6)
        )
        assert len(runs) < 63  # narrow-percent points snap to shared vectors
        assert sum(run.duplicates for run in runs) == 63
        indexes = [run.index for run in runs]
        assert indexes == sorted(indexes)
        assert all(len(run.preferred_widths) == len(soc.cores) for run in runs)

    def test_dedup_ignores_slack_without_idle_insertion(self):
        soc = get_benchmark("d695")
        config = SchedulerConfig(enable_idle_insertion=False)
        sets = build_rectangle_sets(soc, config.max_core_width)
        runs = dedupe_grid(soc, 32, config, sets, (1, 25), (0,), (0, 3, 6))
        with_insertion = dedupe_grid(
            soc, 32, SchedulerConfig(), sets, (1, 25), (0,), (0, 3, 6)
        )
        assert len(runs) <= 2  # slack dropped from the signature
        assert len(runs) < len(with_insertion)

    def test_early_exit_when_bound_met(self):
        # A single-core SOC always meets the bottleneck bound.
        soc = generate_soc(7, name="single", profile=GeneratorProfile(min_cores=1, max_cores=1))
        outcome = run_grid_sweep(soc, 24)
        assert outcome.early_exit
        assert outcome.makespan == outcome.lower_bound

    def test_makespan_limit_aborts_run(self):
        soc = get_benchmark("d695")
        with pytest.raises(MakespanLimitExceeded):
            run_paper_scheduler(soc, 32, makespan_limit=1)

    def test_makespan_limit_keeps_ties_alive(self):
        # A limit equal to the true makespan must NOT abort (strict rule).
        soc = get_benchmark("d695")
        schedule = run_paper_scheduler(soc, 32)
        bounded = run_paper_scheduler(soc, 32, makespan_limit=schedule.makespan)
        assert schedule_fingerprint(bounded) == schedule_fingerprint(schedule)


def random_case(seed: int, profile: GeneratorProfile, use_heaps: bool):
    """A random SOC with random constraints and config, and its sets."""
    rng = random.Random(seed)
    soc = generate_soc(seed, name=f"area-{seed}", profile=profile)
    constraints = random_constraints(soc, rng)
    config = random_config(rng, use_candidate_heaps=use_heaps)
    sets = build_rectangle_sets(soc, config.max_core_width)
    return soc, constraints, config, sets


class TestAreaFloor:
    """The scheduler's area floor is exact at completion and never prunes
    a run that meets its limit."""

    @pytest.mark.parametrize("use_heaps", [True, False], ids=["heaps", "scan"])
    @pytest.mark.parametrize(
        "seed,profile",
        [pytest.param(seed, PROFILE, id=str(seed)) for seed in range(12)]
        + [
            pytest.param(seed, CROWDED_PROFILE, id=f"crowded-{seed}")
            for seed in range(100, 104)
        ],
    )
    def test_area_equals_width_times_makespan(self, seed, profile, use_heaps):
        soc, constraints, config, sets = random_case(seed, profile, use_heaps)
        for width in (1, 7, 13, 32, 64):
            run = scheduler._Scheduler(soc, width, constraints, config, sets)
            schedule = run.run()
            # Idle wire-cycles plus every segment's area fill the bin.
            assert run._area == width * schedule.makespan

    @given(
        seed=st.integers(0, 10_000),
        crowded=st.booleans(),
        use_heaps=st.booleans(),
        width=st.sampled_from((1, 7, 13, 32, 64)),
    )
    @settings(max_examples=30, deadline=None)
    def test_limit_at_makespan_completes_and_below_it_prunes(
        self, seed, crowded, use_heaps, width
    ):
        profile = CROWDED_PROFILE if crowded else PROFILE
        soc, constraints, config, sets = random_case(seed, profile, use_heaps)
        schedule = run_paper_scheduler(
            soc, width, constraints=constraints, config=config, rectangle_sets=sets
        )
        makespan = schedule.makespan
        bounded = run_paper_scheduler(
            soc,
            width,
            constraints=constraints,
            config=config,
            rectangle_sets=sets,
            makespan_limit=makespan,
        )
        assert schedule_fingerprint(bounded) == schedule_fingerprint(schedule)
        with pytest.raises(MakespanLimitExceeded):
            run_paper_scheduler(
                soc,
                width,
                constraints=constraints,
                config=config,
                rectangle_sets=sets,
                makespan_limit=makespan - 1,
            )


# (SOC, width) cases of the GridSweepState properties, over SMALL_GRID.
STATE_CASES = (("d695", 32), ("p93791", 48))


def new_state(case) -> GridSweepState:
    soc_name, width = case
    soc = get_benchmark(soc_name)
    config = SchedulerConfig()
    sets = get_default_session().rectangle_sets(soc, config.max_core_width)
    return GridSweepState(soc, width, None, config, sets, **SMALL_GRID)


@functools.lru_cache(maxsize=None)
def state_replies(case):
    """Every run's limit-free schedule, the serial outcome and its run index."""
    state = new_state(case)
    schedules = {
        run.index: grid_sweep._execute_run(
            state.soc,
            state.width,
            ConstraintSet.unconstrained(),
            state.config,
            state.sets,
            run.point,
            run.preferred_widths,
            None,
        )
        for run in state.runs
    }
    serial = run_grid_sweep(state.soc, state.width, **SMALL_GRID)
    (winner,) = [run.index for run in state.runs if run.point == serial.winner]
    return schedules, serial, winner


class TestGridSweepState:
    """The one winner rule, fed replies the way the executor feeds it."""

    @pytest.mark.parametrize("case", STATE_CASES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_replies_in_any_order_pick_the_serial_winner(self, case, data):
        schedules, serial, _ = state_replies(case)
        best = min(schedule.makespan for schedule in schedules.values())
        state = new_state(case)
        for index in data.draw(st.permutations(sorted(schedules))):
            schedule = schedules[index]
            # A prune is only sound for a run strictly worse than the best.
            kinds = ["completed", "bare"] + (["pruned"] if schedule.makespan > best else [])
            kind = data.draw(st.sampled_from(kinds))
            if kind == "pruned":
                state.absorb(index, None, None)
            elif kind == "bare":
                state.absorb(index, schedule.makespan, None)
            else:
                state.absorb(index, schedule.makespan, schedule)
        assert state.settled and list(state.pending()) == []
        outcome = state.outcome()
        assert outcome == serial
        assert schedule_fingerprint(outcome.schedule) == schedule_fingerprint(
            serial.schedule
        )

    @pytest.mark.parametrize("case", STATE_CASES)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_bare_winner_is_recomputed_exactly_once(self, case, data):
        schedules, serial, winner = state_replies(case)
        state = new_state(case)
        for index in data.draw(st.permutations(sorted(schedules))):
            schedule = schedules[index]
            bare = index == winner or data.draw(st.booleans())
            state.absorb(index, schedule.makespan, None if bare else schedule)
        limits = []
        real = grid_sweep._execute_run

        def counting(*args, **kwargs):
            limits.append(args[7])
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid_sweep, "_execute_run", counting)
            outcomes = [state.outcome(), state.outcome()]
        assert limits == [None]  # one limit-free rerun, however often asked
        for outcome in outcomes:
            assert outcome == serial
            assert schedule_fingerprint(outcome.schedule) == schedule_fingerprint(
                serial.schedule
            )

    @pytest.mark.parametrize("case", STATE_CASES)
    def test_completed_winner_is_not_recomputed(self, case, monkeypatch):
        schedules, serial, _ = state_replies(case)
        state = new_state(case)
        for index, schedule in schedules.items():
            state.absorb(index, schedule.makespan, schedule)
        monkeypatch.setattr(grid_sweep, "_execute_run", None)  # must not be called
        assert state.outcome() == serial

    @pytest.mark.parametrize("case", STATE_CASES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_pending_after_the_bound_is_met_yields_only_earlier_runs(self, case, data):
        state = new_state(case)
        indexes = [run.index for run in state.runs]
        pruned = data.draw(st.sets(st.sampled_from(indexes)))
        for index in pruned:
            state.absorb(index, None, None)
        incumbent = data.draw(st.sampled_from(indexes))
        makespan = data.draw(st.integers(state.bound - 3, state.bound + 3))
        state.absorb(incumbent, makespan, None)
        unacked = [
            run.index for run in state.runs if run.index not in pruned | {incumbent}
        ]
        pending = [run.index for run in state.pending()]
        if makespan <= state.bound:
            assert pending == [index for index in unacked if index < incumbent]
        else:
            assert pending == unacked
        assert state.settled == (not pending)
        assert state.limit() == makespan


class TestLazyStates:
    """A run builds core states on demand; everything that used to read the
    full set of states still sees every core."""

    @pytest.mark.parametrize("use_heaps", [True, False], ids=["heaps", "scan"])
    def test_core_over_the_power_budget_is_named(self, use_heaps):
        soc = generate_soc(3100, name="lazy-power", profile=CROWDED_PROFILE)
        hungry = max(soc.cores, key=lambda core: (core.test_power, core.name))
        budget = max(
            core.test_power for core in soc.cores if core.test_power < hungry.test_power
        )
        constraints = ConstraintSet.for_soc(soc, power_max=budget)
        config = SchedulerConfig(use_candidate_heaps=use_heaps)
        for width in (7, 64):
            with pytest.raises(SchedulerError, match=re.escape(repr(hungry.name))):
                run_paper_scheduler(soc, width, constraints=constraints, config=config)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("default", [0, 2])
    def test_per_core_preemption_overrides_match_the_scan(self, seed, default):
        rng = random.Random(3200 + seed)
        soc = generate_soc(3200 + seed, name=f"lazy-pre-{seed}", profile=CROWDED_PROFILE)
        names = list(soc.core_names)
        overrides = {name: rng.choice((0, 1, 3)) for name in rng.sample(names, len(names) // 3)}
        constraints = ConstraintSet.for_soc(
            soc, max_preemptions=overrides, default_preemptions=default
        )
        config = random_config(rng)
        for width in (5, 16, 48):
            heap = run_paper_scheduler(soc, width, constraints=constraints, config=config)
            scan = run_paper_scheduler(
                soc,
                width,
                constraints=constraints,
                config=replace(config, use_candidate_heaps=False),
            )
            assert schedule_fingerprint(heap) == schedule_fingerprint(scan)
            heap.validate(soc, constraints)

    @pytest.mark.parametrize("cache_first", [False, True], ids=["fresh", "cached-at-32"])
    def test_sets_built_narrower_than_the_config_are_refused(self, cache_first):
        soc = get_benchmark("d695")
        sets = build_rectangle_sets(soc, 32)
        narrow = SchedulerConfig(max_core_width=32)
        if cache_first:
            run_paper_scheduler(soc, 24, config=narrow, rectangle_sets=sets)
            run_grid_sweep(soc, 24, config=narrow, rectangle_sets=sets, **SMALL_GRID)
            assert sets.plan is not None and sets.plan.max_width == 32
        with pytest.raises(ValueError, match="max_width"):
            run_paper_scheduler(soc, 24, config=SchedulerConfig(), rectangle_sets=sets)
        with pytest.raises(ValueError, match="max_width"):
            run_grid_sweep(soc, 24, rectangle_sets=sets, **SMALL_GRID)

    def test_mixed_widths_leave_the_plan_without_a_common_max_width(self):
        soc = get_benchmark("d695")
        sets = build_rectangle_sets(soc, 64)
        sets.update(build_rectangle_sets(soc.with_cores(soc.cores[:1]), 32))
        assert soc_plan(soc, sets).max_width is None
        with pytest.raises(ValueError, match="max_width"):
            run_paper_scheduler(soc, 24, rectangle_sets=sets)


class TestSocPlan:
    """The per-(SOC, width) plan agrees with the per-core rules it caches."""

    @pytest.mark.parametrize("seed", range(6))
    def test_plan_matches_per_core_rules(self, seed):
        rng = random.Random(2000 + seed)
        soc = generate_soc(2000 + seed, name=f"plan-{seed}", profile=PROFILE)
        sets = build_rectangle_sets(soc, 64)
        plan = soc_plan(soc, sets)
        assert soc_plan(soc, sets) is plan is sets.plan
        assert plan.names == soc.core_names
        assert plan.powers == tuple(core.test_power for core in soc.cores)
        assert plan.bist_resources == tuple(core.bist_resource for core in soc.cores)
        descending = sorted(soc.core_names, reverse=True)
        assert plan.desc_rank == tuple(descending.index(name) for name in soc.core_names)
        assert plan.by_rank == tuple(soc.core_names.index(name) for name in descending)
        assert plan.index == {name: i for i, name in enumerate(soc.core_names)}
        assert plan.max_width == 64
        for _ in range(20):
            percent = rng.choice((0, 1, 5, 10, 25, 40, 60, 75, 150))
            delta = rng.choice((0, 2, 4, 9))
            cap = rng.randint(1, 64)
            vector = plan.preferred_vector(percent, delta, cap)
            assert vector == tuple(
                sets[core.name].preferred_width(percent, delta, cap) for core in soc.cores
            )
            total_width = rng.randint(1, 80)
            times = [sets[core.name].time_at(width) for core, width in zip(soc.cores, vector)]
            area = sum(width * time for width, time in zip(vector, times))
            expected = max(math.ceil(area / total_width), max(times))
            assert plan.estimate(vector, total_width) == expected
            n = len(soc.cores)
            buckets = plan.unstarted_buckets(vector, total_width)
            decoded = {}
            for width, heap in buckets.items():
                assert heap and heap[0] == min(heap)
                for key in heap:
                    index = plan.by_rank[key % n]
                    decoded[index] = (width, -(key // n))
            assert decoded == {
                index: (min(width, total_width), time)
                for index, (width, time) in enumerate(zip(vector, times))
            }

    def test_buckets_of_a_foreign_vector_look_times_up_like_time_at(self):
        soc = generate_soc(2050, name="plan-foreign", profile=PROFILE)
        sets = build_rectangle_sets(soc, 16)
        plan = soc_plan(soc, sets)
        n = len(soc.cores)
        wide = tuple(range(14, 14 + n))  # reaches past max_width=16
        buckets = plan.unstarted_buckets(wide, 20)
        keys = sorted(key for heap in buckets.values() for key in heap)
        expected = sorted(
            plan.desc_rank[i] - sets[name].time_at(width) * n
            for i, (name, width) in enumerate(zip(soc.core_names, wide))
        )
        assert keys == expected
        assert set(buckets) == {min(width, 20) for width in wide}
        with pytest.raises(ValueError, match="at least 1"):
            plan.unstarted_buckets((0,) + wide[1:], 20)

    def test_reordered_soc_gets_its_own_plan(self):
        soc = generate_soc(2100, name="plan-order", profile=CROWDED_PROFILE)
        cores = list(soc.cores)
        random.Random(5).shuffle(cores)
        shuffled = soc.with_cores(cores)
        sets = build_rectangle_sets(soc, 64)
        plan = soc_plan(soc, sets)
        assert soc_plan(Soc(soc.name, soc.cores), sets) is plan  # equal SOC
        reordered = soc_plan(shuffled, sets)
        assert reordered is not plan
        assert reordered.names == shuffled.core_names
        assert reordered.rectangles == tuple(sets[name] for name in shuffled.core_names)
        outcome = run_grid_sweep(shuffled, 24, rectangle_sets=sets, **SMALL_GRID)
        fresh = run_grid_sweep(
            shuffled, 24, rectangle_sets=build_rectangle_sets(shuffled, 64), **SMALL_GRID
        )
        assert outcome == fresh
        assert soc_plan(soc, sets).names == soc.core_names

    @pytest.mark.parametrize("soc_name,width", [("d695", 24), ("p93791", 40)])
    def test_plain_dict_solves_like_cached_sets(self, soc_name, width):
        soc = get_benchmark(soc_name)
        sets = build_rectangle_sets(soc, 64)
        plain = dict(sets)
        constraints = ConstraintSet(default_preemptions=2)
        for mode in (None, constraints):
            cached = run_grid_sweep(soc, width, constraints=mode, rectangle_sets=sets)
            assert run_grid_sweep(soc, width, constraints=mode, rectangle_sets=plain) == cached
            assert schedule_fingerprint(
                run_paper_scheduler(soc, width, constraints=mode, rectangle_sets=plain)
            ) == schedule_fingerprint(
                run_paper_scheduler(soc, width, constraints=mode, rectangle_sets=sets)
            )
        assert not hasattr(plain, "plan")

    def test_priming_builds_the_plan_before_the_fork(self):
        soc = get_benchmark("d695")
        _prime_soc_pairs({"d695": soc}, [("d695", 48)])
        sets = get_default_session().rectangle_sets(soc, 48)
        assert sets.plan is not None
        assert sets.plan.soc == soc


class TestBestSolverMetadata:
    """The ``best`` solver surfaces the sweep provenance."""

    def test_winner_point_in_result_metadata(self):
        session = Session()
        result = session.solve(
            ScheduleRequest(
                soc=get_benchmark("d695"),
                total_width=32,
                solver="best",
                options=SMALL_GRID,
            )
        )
        metadata = result.metadata
        assert metadata["grid_points"] == 12
        assert 1 <= metadata["unique_runs"] <= 12
        winner = GridPoint(
            percent=metadata["winner_percent"],
            delta=metadata["winner_delta"],
            slack=metadata["winner_slack"],
        )
        assert winner.percent in SMALL_GRID["percents"]
        assert winner.delta in SMALL_GRID["deltas"]
        assert winner.slack in SMALL_GRID["slacks"]
        assert metadata["lower_bound"] >= 1
        assert isinstance(metadata["early_exit"], bool)

    def test_workers_option_is_bit_identical(self):
        soc = get_benchmark("d695")
        session = Session()
        serial = session.solve(
            ScheduleRequest(soc=soc, total_width=32, solver="best", options=SMALL_GRID)
        )
        parallel = session.solve(
            ScheduleRequest(
                soc=soc,
                total_width=32,
                solver="best",
                options={**SMALL_GRID, "workers": 2},
            )
        )
        assert parallel.makespan == serial.makespan
        assert parallel.metadata == serial.metadata
        assert schedule_fingerprint(parallel.schedule) == schedule_fingerprint(
            serial.schedule
        )
