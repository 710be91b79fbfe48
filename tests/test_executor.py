"""Tests for the flattened shared-pool executor (repro.engine.executor).

Five contracts are pinned here:

* **Bit-identity.**  For any job list -- including ``best`` jobs, which the
  executor decomposes into deduplicated grid-run tasks -- the results are
  identical to the serial reference for every worker count (randomized
  property tests over generated SOCs, mixed solvers and constraints).
* **Flat fan-out.**  A ``best`` job running under the sweep engine is
  decomposed in the parent and dispatched as multiple tasks (the old
  two-layer engine silently serialised the grid inside one worker).
* **Observable degrade.**  When no pool can be created the run falls back
  to the serial path with a RuntimeWarning and ``degraded_to_serial`` set
  in the executor stats / sweep metadata -- never silently.
* **Grid-task dispatch.**  Decomposed grid sweeps -- at every worker
  count, chunk size and board-poll cadence, under chaos fault plans and
  on spawn pools -- match the serial reference record-for-record
  (schedules by fingerprint).  Each grid run travels as one pickled
  ``_GridTask`` against a worker universe of SOCs installed by the pool
  initializer; run in-process, those tasks reproduce the serial winner.
* **Clean stderr.**  Repeated pooled solves with pool teardown in
  between print no tracebacks.
"""

import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys

import pytest

import repro.engine.executor as executor_module
from repro.analysis.perf import schedule_fingerprint
from repro.core.grid_sweep import dedupe_grid, order_runs_by_estimate, run_grid_sweep
from repro.core.scheduler import SchedulerConfig
from repro.engine.executor import (
    FlatExecutor,
    _execute_chunk,
    _execute_task,
    _GridTask,
    _init_worker,
    _resolve_chunksize,
    _TaskFailure,
    get_default_executor,
    prime_context_caches,
    task_fingerprint,
    use_executor,
)
from repro.engine.faults import FaultPlan
from repro.engine.jobs import EngineContext, ScheduleJob
from repro.engine.runner import run_jobs
from repro.soc.benchmarks import get_benchmark
from repro.soc.constraints import ConstraintSet
from repro.soc.generator import GeneratorProfile, generate_soc
from repro.solvers import ScheduleRequest, SolverError
from repro.solvers.session import get_default_session

# Small profile so each randomized case schedules in milliseconds.
PROFILE = GeneratorProfile(
    min_cores=4,
    max_cores=8,
    max_scan_cells=2000,
    max_scan_chains=10,
    bist_fraction=0.2,
)

SMALL_GRID = {"percents": (1, 10, 40), "deltas": (0, 2), "slacks": (0, 3)}
TRIM_GRID = {"percents": (1, 25), "deltas": (0,), "slacks": (3, 6)}

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def random_jobs(soc, rng, constraints_keys=()):
    """A mixed job list: paper, best (decomposable) and shelf jobs."""
    jobs = []
    for index in range(rng.randint(3, 6)):
        solver = rng.choice(("paper", "best", "best", "shelf"))
        options = SMALL_GRID if solver == "best" else {}
        constraints = (
            rng.choice(constraints_keys) if constraints_keys and rng.random() < 0.5
            else None
        )
        jobs.append(
            ScheduleJob(
                index=index,
                soc=soc.name,
                width=rng.choice((10, 16, 24)),
                constraints=constraints,
                solver=solver,
                options=options,
                group=(soc.name,),
            )
        )
    return jobs


class TestFlatBitIdentity:
    """Flattened parallel results are bit-identical to the serial reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_mixed_jobs_across_worker_counts(self, seed):
        rng = random.Random(4000 + seed)
        soc = generate_soc(4000 + seed, name=f"flat-{seed}", profile=PROFILE)
        constraints = {
            "budgeted": ConstraintSet.for_soc(soc, default_preemptions=2)
        }
        context = EngineContext.for_soc(soc, constraints)
        jobs = random_jobs(soc, rng, constraints_keys=("budgeted",))
        serial = run_jobs(jobs, context, workers=0)
        for workers in (2, 4):
            parallel = run_jobs(jobs, context, workers=workers)
            assert tuple(parallel) == tuple(serial)
            for left, right in zip(serial, parallel):
                assert schedule_fingerprint(left.schedule) == schedule_fingerprint(
                    right.schedule
                )
                assert left.metadata == right.metadata

    def test_whole_dispatched_best_job_with_workers_option_stays_identical(self):
        # Enough jobs to trigger whole-job dispatch; each best job carries
        # a workers option.  Inside a daemonic pool worker that inner
        # fan-out is forced serial instead of attempting a nested pool --
        # metadata must NOT grow an environment-dependent degrade marker.
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        jobs = [
            ScheduleJob(
                index=i,
                soc=soc.name,
                width=width,
                solver="best",
                options={**SMALL_GRID, "workers": 2},
            )
            for i, width in enumerate((10, 14, 18, 22, 26))
        ]
        serial = run_jobs(jobs, context, workers=0)
        import warnings as warnings_module

        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            parallel = run_jobs(jobs, context, workers=2)  # 5 >= 2*2: whole jobs
        assert tuple(parallel) == tuple(serial)
        for result in parallel:
            assert "degraded_to_serial" not in dict(result.metadata)
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]

    def test_best_job_results_match_undecomposed_solve(self):
        # The flat path must reproduce the Session.solve('best') result
        # exactly: same schedule, same winner metadata.
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        job = ScheduleJob(
            index=0, soc=soc.name, width=32, solver="best", options=SMALL_GRID
        )
        serial = run_jobs([job], context, workers=0)[0]
        flat = run_jobs([job], context, workers=3)[0]
        assert flat == serial
        assert dict(flat.metadata) == dict(serial.metadata)
        assert schedule_fingerprint(flat.schedule) == schedule_fingerprint(
            serial.schedule
        )


class TestFlatFanOut:
    """Best jobs decompose into parallel grid-run tasks (no nested pools)."""

    def test_best_job_under_engine_runs_grid_in_parallel(self):
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        job = ScheduleJob(
            index=0, soc=soc.name, width=32, solver="best", options=SMALL_GRID
        )
        results = run_jobs([job], context, workers=2)
        stats = results.stats
        assert stats is not None
        assert stats.decomposed_jobs == 1
        # The grid fan-out is visible as task count: one job, many tasks
        # (the old nested-pool fallback ran the grid as a single task).
        assert stats.tasks > 1
        assert stats.workers == 2
        assert not results.degraded_to_serial

    def test_serial_path_reports_one_task_per_job(self):
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        jobs = [
            ScheduleJob(index=0, soc=soc.name, width=16),
            ScheduleJob(index=1, soc=soc.name, width=24),
        ]
        results = run_jobs(jobs, context, workers=0)
        assert results.stats is not None
        assert results.stats.tasks == results.stats.jobs == 2
        assert results.stats.decomposed_jobs == 0

    def test_best_job_with_unknown_option_raises_canonical_error(self):
        # Undecomposable best jobs stay whole so the solver's own option
        # validation fires, identically on the serial and parallel paths.
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        job = ScheduleJob(
            index=0, soc=soc.name, width=16, solver="best",
            options={"bogus": 1},
        )
        with pytest.raises(SolverError, match="does not understand options"):
            run_jobs([job], context, workers=0)
        with pytest.raises(SolverError, match="does not understand options"):
            run_jobs([job], context, workers=2)


class TestPoolLifecycle:
    """The pool persists across calls and refreshes on context change."""

    def test_pool_persists_for_same_context(self):
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        jobs = [ScheduleJob(index=i, soc=soc.name, width=w)
                for i, w in enumerate((12, 16, 20, 24))]
        with FlatExecutor() as executor:
            executor.run_jobs(jobs, context, workers=2)
            first_pool = executor._pool
            assert first_pool is not None
            executor.run_jobs(jobs, context, workers=2)
            assert executor._pool is first_pool  # reused, not recreated
            other = EngineContext.for_soc(get_benchmark("p34392"))
            other_jobs = [ScheduleJob(index=0, soc="p34392", width=16),
                          ScheduleJob(index=1, soc="p34392", width=20)]
            executor.run_jobs(other_jobs, other, workers=2)
            assert executor._pool is not first_pool  # context changed
        assert not executor.pool_alive  # context manager closed it

    def test_close_is_idempotent_and_executor_stays_usable(self):
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        jobs = [ScheduleJob(index=i, soc=soc.name, width=w)
                for i, w in enumerate((12, 16))]
        executor = FlatExecutor()
        try:
            serial = executor.run_jobs(jobs, context, workers=0)
            executor.close()
            executor.close()
            again = executor.run_jobs(jobs, context, workers=2)
            assert tuple(again) == tuple(serial)
        finally:
            executor.close()

    def test_default_executor_is_shared(self):
        assert get_default_executor() is get_default_executor()


class TestObservableDegrade:
    """Pool-creation failure warns and marks the results -- never silent."""

    @pytest.fixture
    def broken_pools(self, monkeypatch):
        class BrokenContext:
            def get_start_method(self):
                return "fork"

            def RawArray(self, *args, **kwargs):
                raise OSError("no shared memory in this sandbox")

            def Pool(self, *args, **kwargs):
                raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(
            executor_module, "preferred_pool_context", lambda: BrokenContext()
        )

    def test_run_jobs_degrade_warns_and_flags(self, broken_pools):
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        jobs = [ScheduleJob(index=i, soc=soc.name, width=w)
                for i, w in enumerate((12, 16))]
        with FlatExecutor() as executor:
            serial = executor.run_jobs(jobs, context, workers=0)
            assert not serial.degraded_to_serial
            with pytest.warns(RuntimeWarning, match="degrading to the serial"):
                degraded = executor.run_jobs(jobs, context, workers=4)
        assert degraded.degraded_to_serial
        assert degraded.stats.workers == 0
        assert tuple(degraded) == tuple(serial)  # results stay identical

    def test_grid_sweep_degrade_marks_metadata(self, broken_pools, monkeypatch):
        # run_grid_sweep goes through the default executor; isolate it.
        monkeypatch.setattr(executor_module, "_DEFAULT_EXECUTOR", None)
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 24, **SMALL_GRID)
        with pytest.warns(RuntimeWarning, match="degrading to the serial"):
            degraded = run_grid_sweep(soc, 24, workers=4, **SMALL_GRID)
        assert degraded == serial  # flag excluded from equality
        assert degraded.degraded_to_serial
        assert degraded.metadata()["degraded_to_serial"] is True
        assert "degraded_to_serial" not in serial.metadata()


class TestPrecisePriming:
    """Only the (SOC, width) pairs the job list references are warmed."""

    def test_prime_pairs_warms_only_referenced_combinations(self):
        small = get_benchmark("d695")
        big = get_benchmark("p93791")
        context = EngineContext(socs={small.name: small, big.name: big})
        session = get_default_session()
        session.clear_cache()
        primed = prime_context_caches(context, {(small.name, 32)})
        assert primed == len(small.cores)  # big SOC untouched
        info = session.cache_info()
        assert info.entries == 1

    def test_prime_pairs_for_every_soc_cover_every_core(self):
        small = get_benchmark("d695")
        big = get_benchmark("p93791")
        context = EngineContext(socs={small.name: small, big.name: big})
        session = get_default_session()
        session.clear_cache()
        primed = prime_context_caches(context, {(small.name, 16), (big.name, 16)})
        assert primed == len(small.cores) + len(big.cores)
        assert session.cache_info().entries == 2

    def test_run_jobs_primes_exactly_the_job_pairs(self):
        small = get_benchmark("d695")
        big = get_benchmark("p93791")
        context = EngineContext(socs={small.name: small, big.name: big})
        session = get_default_session()
        session.clear_cache()
        jobs = [ScheduleJob(index=0, soc=small.name, width=12)]
        run_jobs(jobs, context, workers=0)
        entries = session.cache_info().entries
        # Only d695's (SOC, max-core-width) pair -- p93791 stays cold.
        assert entries == 1


def sweep_identical(left, right):
    return (
        left == right
        and left.makespan == right.makespan
        and left.winner == right.winner
        and schedule_fingerprint(left.schedule)
        == schedule_fingerprint(right.schedule)
    )


class TestGridTaskDispatch:
    """Pickled grid tasks reproduce the serial sweep under every knob."""

    @pytest.mark.parametrize(
        "soc_name,width,grid",
        [("d695", 32, SMALL_GRID), ("p93791", 64, TRIM_GRID)],
    )
    def test_worker_counts_match_serial_reference(self, soc_name, width, grid):
        soc = get_benchmark(soc_name)
        serial = run_grid_sweep(soc, width, **grid)
        for workers in (1, 2, 4):
            parallel = run_grid_sweep(soc, width, workers=workers, **grid)
            assert sweep_identical(parallel, serial)

    def test_aggressive_board_poll_stays_identical(self, monkeypatch):
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **SMALL_GRID)
        for poll in (1, 0):
            # Patched before the fresh executor forks its pool.
            monkeypatch.setattr(executor_module, "_BOARD_POLL", poll)
            executor = FlatExecutor()
            try:
                with use_executor(executor):
                    swept = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
                assert sweep_identical(swept, serial)
                if poll == 0:
                    stats = executor.last_stats
                    assert stats is not None
                    assert stats.board_aborts == 0  # checkpoint disabled
            finally:
                executor.close()

    def test_chaos_plan_with_aborts_stays_identical(self, monkeypatch):
        # Faults and mid-run aborts compose: kills/exceptions re-dispatch
        # grid tasks, the board checkpoint fires every event, and the
        # result still matches the fault-free serial reference.
        monkeypatch.setattr(executor_module, "_BOARD_POLL", 1)
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **SMALL_GRID)
        plan = FaultPlan.from_dict(
            {
                "faults": [
                    {"kind": "exception", "match": ":r0", "attempts": [1]},
                    {"kind": "kill", "match": ":r2", "attempts": [1]},
                ]
            }
        )
        executor = FlatExecutor(
            fault_plan=plan, task_deadline=10.0, retry_backoff=0.0
        )
        try:
            with use_executor(executor):
                swept = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
            assert sweep_identical(swept, serial)
        finally:
            executor.close()

    def test_spawn_pool_stays_identical(self, monkeypatch):
        # Under spawn the SOCs travel through the pool's initargs and the
        # workers build their caches in the initializer.
        import multiprocessing

        monkeypatch.setattr(
            executor_module,
            "preferred_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **TRIM_GRID)
        executor = FlatExecutor()
        try:
            with use_executor(executor):
                swept = run_grid_sweep(soc, 32, workers=2, **TRIM_GRID)
            assert sweep_identical(swept, serial)
            assert executor.last_stats is not None
            assert executor.last_stats.workers == 2
        finally:
            executor.close()

    @pytest.mark.parametrize("chunk", [1, 5, 999])
    def test_every_chunk_size_stays_identical(self, monkeypatch, chunk):
        monkeypatch.setattr(
            executor_module, "_resolve_chunksize", lambda total, processes: chunk
        )
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **SMALL_GRID)
        swept = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
        assert sweep_identical(swept, serial)

    def test_watchdog_arms_at_derived_chunk_sizes(self, monkeypatch):
        # A hang inside a multi-task chunk must still trip the watchdog
        # and resurrect the pool without losing the chunk's results.
        monkeypatch.setattr(
            executor_module, "_resolve_chunksize", lambda total, processes: 4
        )
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **SMALL_GRID)
        plan = FaultPlan.from_dict(
            {"faults": [{"kind": "hang", "match": ":r1", "attempts": [1],
                         "seconds": 30.0}]}
        )
        executor = FlatExecutor(
            fault_plan=plan, task_deadline=1.0, retry_backoff=0.0
        )
        try:
            with use_executor(executor):
                swept = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
            assert sweep_identical(swept, serial)
            assert swept.recovery_events  # the stall was journalled
        finally:
            executor.close()

    def test_chunksize_derivation(self):
        assert _resolve_chunksize(3, 2) == 1  # short queues stay unbatched
        assert _resolve_chunksize(100, 4) == 2
        assert _resolve_chunksize(5000, 4) == 64  # capped
        assert _resolve_chunksize(0, 0) == 1


def grid_tasks(soc, width, grid):
    """The unbounded pickled tasks a grid sweep of ``soc`` would dispatch."""
    config = SchedulerConfig()
    sets = get_default_session().rectangle_sets(soc, config.max_core_width)
    runs = dedupe_grid(
        soc, width, config, sets, grid["percents"], grid["deltas"], grid["slacks"]
    )
    return [
        _GridTask(
            job_index=0,
            run_index=run.index,
            soc=soc.name,
            width=width,
            constraints=None,
            config=config,
            point=run.point,
            vector=run.preferred_widths,
            limit=None,
        )
        for run in order_runs_by_estimate(soc, sets, width, runs)
    ]


@pytest.fixture
def worker_universe(monkeypatch):
    """Install a SOC universe in this process as a pool initializer would.

    The SOCs cross a pickle round trip first, exactly as they reach spawn
    and forkserver workers through ``initargs``; the worker globals are
    restored afterwards.
    """
    for name in ("_WORKER_SOCS", "_WORKER_BOARD", "_WORKER_FAULTS"):
        monkeypatch.setattr(executor_module, name, getattr(executor_module, name))

    def install(*socs):
        shipped = pickle.loads(pickle.dumps({soc.name: soc for soc in socs}))
        width = SchedulerConfig().max_core_width
        _init_worker(shipped, [(soc.name, width) for soc in socs])
        return executor_module._WORKER_SOCS

    return install


GRID_CASES = [("d695", 32, SMALL_GRID), ("p93791", 64, TRIM_GRID)]


class TestGridTaskEncoding:
    """A grid run travels as one pickled ``_GridTask`` and runs anywhere."""

    @pytest.mark.parametrize("soc_name,width,grid", GRID_CASES)
    def test_tasks_survive_a_pickle_round_trip(self, soc_name, width, grid):
        tasks = grid_tasks(get_benchmark(soc_name), width, grid)
        assert len(tasks) > 1
        for task in tasks:
            shipped = pickle.loads(pickle.dumps(task))
            assert shipped == task
            assert task_fingerprint(shipped) == task_fingerprint(task)

    @pytest.mark.parametrize("soc_name,width,grid", GRID_CASES)
    def test_in_process_tasks_reproduce_the_serial_winner(
        self, worker_universe, soc_name, width, grid
    ):
        soc = get_benchmark(soc_name)
        serial = run_grid_sweep(soc, width, **grid)
        worker_universe(soc)
        replies = [_execute_task(task) for task in grid_tasks(soc, width, grid)]
        results = {}
        for job_index, run_index, payload, _wall in replies:
            assert job_index == 0
            makespan, schedule = payload  # unbounded: every run completes
            results[run_index] = (makespan, schedule)
        winner = min(results, key=lambda index: (results[index][0], index))
        makespan, schedule = results[winner]
        assert makespan == serial.makespan
        assert schedule_fingerprint(schedule) == schedule_fingerprint(
            serial.schedule
        )

    def test_limit_keeps_non_improving_schedules_out_of_the_reply(
        self, worker_universe
    ):
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **SMALL_GRID)
        worker_universe(soc)
        for task in grid_tasks(soc, 32, SMALL_GRID):
            bounded = dataclasses.replace(task, limit=serial.makespan)
            _, run_index, payload, _ = _execute_task(bounded)
            assert run_index == task.run_index
            # Pruned (None) or a bare makespan -- never the schedule.
            assert payload is None or (
                isinstance(payload, int) and payload >= serial.makespan
            )

    def test_chunk_replies_follow_task_order(self, worker_universe):
        soc = get_benchmark("d695")
        worker_universe(soc)
        tasks = tuple(grid_tasks(soc, 32, SMALL_GRID))
        replies = _execute_chunk(tasks)
        assert [reply[1] for reply in replies] == [task.run_index for task in tasks]

    def test_unknown_soc_key_ships_a_task_failure(self, worker_universe):
        soc = get_benchmark("d695")
        worker_universe(soc)
        task = dataclasses.replace(
            grid_tasks(soc, 32, SMALL_GRID)[0], soc="absent", attempt=2
        )
        job_index, run_index, payload, _ = _execute_task(task)
        assert (job_index, run_index) == (0, task.run_index)
        assert isinstance(payload, _TaskFailure)
        assert payload.fingerprint == task_fingerprint(task)
        assert payload.attempt == 2
        assert isinstance(payload.exception, KeyError)

    def test_fingerprint_names_soc_width_job_and_run(self):
        task = dataclasses.replace(
            grid_tasks(get_benchmark("d695"), 32, SMALL_GRID)[0],
            job_index=3,
            run_index=7,
        )
        assert task_fingerprint(task) == "grid:d695:w32:j3:r7"


class TestWorkerUniverse:
    """Workers hold the SOCs the pool was created with, keyed by name."""

    def test_initializer_installs_an_equal_universe(self, worker_universe):
        socs = (get_benchmark("d695"), get_benchmark("p22810"))
        installed = worker_universe(*socs)
        assert set(installed) == {"d695", "p22810"}
        for soc in socs:
            assert installed[soc.name] == soc

    def test_shipped_soc_solves_identically(self, worker_universe):
        soc = get_benchmark("d695")
        reference = get_default_session().solve(
            ScheduleRequest(soc=soc, total_width=24, solver="paper")
        )
        shipped = worker_universe(soc)["d695"]
        again = get_default_session().solve(
            ScheduleRequest(soc=shipped, total_width=24, solver="paper")
        )
        assert again.makespan == reference.makespan
        assert schedule_fingerprint(again.schedule) == schedule_fingerprint(
            reference.schedule
        )

    def test_grid_sweeps_on_one_soc_share_the_pool(self):
        soc = get_benchmark("d695")
        executor = FlatExecutor()
        try:
            with use_executor(executor):
                run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
                first_pool = executor._pool
                assert first_pool is not None
                swept = run_grid_sweep(soc, 32, workers=2, **TRIM_GRID)
                assert executor._pool is first_pool
            assert sweep_identical(swept, run_grid_sweep(soc, 32, **TRIM_GRID))
        finally:
            executor.close()

    def test_a_new_soc_refreshes_the_pool(self):
        first = get_benchmark("d695")
        other = generate_soc(4100, name="refresh", profile=PROFILE)
        executor = FlatExecutor()
        try:
            with use_executor(executor):
                run_grid_sweep(first, 32, workers=2, **SMALL_GRID)
                first_pool = executor._pool
                swept = run_grid_sweep(other, 16, workers=2, **SMALL_GRID)
                assert executor._pool is not first_pool
                assert set(executor._socs) == {"refresh"}
            assert sweep_identical(swept, run_grid_sweep(other, 16, **SMALL_GRID))
        finally:
            executor.close()

    def test_closed_executor_rebuilds_for_the_next_sweep(self):
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **SMALL_GRID)
        executor = FlatExecutor()
        try:
            with use_executor(executor):
                for _ in range(2):
                    swept = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
                    assert sweep_identical(swept, serial)
                    assert executor.pool_alive
                    executor.close()
                    assert not executor.pool_alive
        finally:
            executor.close()

    def test_pooled_sweep_reports_its_stats(self):
        soc = get_benchmark("d695")
        executor = FlatExecutor()
        try:
            with use_executor(executor):
                swept = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
            stats = executor.last_stats
            assert stats is not None
            assert (stats.jobs, stats.decomposed_jobs) == (1, 1)
            assert stats.tasks == swept.unique_runs
            assert stats.workers == 2
            assert stats.failures == () and stats.recovery_events == ()
        finally:
            executor.close()


# Three pooled best solves, each followed by a pool teardown, so every
# solve forks a fresh pool in a process that has already dispatched.
REPEATED_POOLED_SOLVES = """
from repro.engine.executor import get_default_executor
from repro.soc.benchmarks import get_benchmark
from repro.solvers import ScheduleRequest
from repro.solvers.session import get_default_session

soc = get_benchmark("d695")
for _ in range(3):
    result = get_default_session().solve(
        ScheduleRequest(soc=soc, total_width=32, solver="best",
                        options={"workers": 2})
    )
    get_default_executor().close()
    print(result.makespan)
"""


class TestCleanStderr:
    def test_repeated_pooled_solves_print_no_traceback(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-c", REPEATED_POOLED_SOLVES],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        with open(
            os.path.join(REPO_ROOT, "benchmarks", "golden_makespans.json"),
            encoding="utf-8",
        ) as handle:
            golden = json.load(handle)["makespans"]["d695/table2_best/32"]
        assert proc.stdout.split() == [str(golden)] * 3
