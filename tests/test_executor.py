"""Tests for the shared-pool executor (repro.engine.executor).

Five contracts are pinned here:

* **Bit-identity.**  For any job list -- ``best`` jobs included -- the
  results are identical to the serial reference for every worker count
  (randomized property tests over generated SOCs, mixed solvers and
  constraints).
* **One task per job.**  Every job, a ``best`` grid sweep included, is
  one pool task, and a single solve never starts a process.
* **Observable degrade.**  When no pool can be created the run falls back
  to the serial path with a RuntimeWarning and ``degraded_to_serial`` set
  in the executor stats -- never silently.
* **Job dispatch.**  Job lists -- at every worker count and chunk size,
  under a hang and on spawn pools -- match the serial reference
  record-for-record (schedules by fingerprint).  Each job travels as one
  pickled ``_JobTask`` against a worker universe of SOCs installed by the
  pool initializer; run in-process, those tasks reproduce the serial
  result.
* **Clean stderr.**  Repeated pooled runs with pool teardown in between
  print no tracebacks.
"""

import dataclasses
import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys

import pytest

import repro.engine.executor as executor_module
from repro.analysis.experiments import table1_jobs
from repro.analysis.perf import schedule_fingerprint
from repro.core.scheduler import SchedulerConfig
from repro.engine.executor import (
    FlatExecutor,
    _execute_chunk,
    _execute_task,
    _init_worker,
    _JobTask,
    _resolve_chunksize,
    _TaskFailure,
    close_default_executor,
    execute_job,
    get_default_executor,
    prime_context_caches,
    task_fingerprint,
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
    """A mixed job list: paper, best and shelf jobs."""
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
        # Each best job carries a workers option, which has no effect: the
        # grid runs inside the pool worker, which starts no nested pool,
        # so metadata must NOT grow an environment-dependent degrade marker.
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
            parallel = run_jobs(jobs, context, workers=2)
        assert tuple(parallel) == tuple(serial)
        for result in parallel:
            assert "degraded_to_serial" not in dict(result.metadata)
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]

    def test_best_job_results_match_undecomposed_solve(self):
        # A lone job runs in-process whatever the worker count, and must
        # reproduce the serial result exactly: same schedule, same winner
        # metadata.
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


class TestOneTaskPerJob:
    """Every job is one task; a single solve starts no process."""

    def test_best_jobs_dispatch_whole(self):
        soc = get_benchmark("d695")
        jobs, context = table1_jobs(soc, (32,), **SMALL_GRID)
        with FlatExecutor() as executor:
            results = executor.run_jobs(jobs, context, workers=2)
        stats = results.stats
        assert stats is not None
        assert stats.jobs == stats.tasks == len(jobs) == 3
        assert stats.decomposed_jobs == 0 and stats.board_aborts == 0
        assert stats.workers == 2
        assert not results.degraded_to_serial

    def test_single_best_solve_starts_no_process(self):
        close_default_executor()
        soc = get_benchmark("d695")
        request = ScheduleRequest(
            soc=soc, total_width=32, solver="best", options={"workers": 2}
        )
        children = {child.pid for child in multiprocessing.active_children()}
        pooled = get_default_session().solve(request)
        assert {child.pid for child in multiprocessing.active_children()} <= children
        assert not get_default_executor().pool_alive
        serial = get_default_session().solve(
            dataclasses.replace(request, options={"workers": 0})
        )
        assert pooled.makespan == serial.makespan
        assert schedule_fingerprint(pooled.schedule) == schedule_fingerprint(
            serial.schedule
        )

    def test_run_grid_runs_is_an_inert_stub(self):
        # Kept by name for perfbench's tracer only: it dispatches nothing,
        # starts no pool and records no stats.
        with FlatExecutor() as executor:
            assert executor.run_grid_runs(object(), 2) == ()
            assert not executor.pool_alive
            assert executor.last_stats is None

    def test_best_workers_option_is_still_validated(self):
        request = ScheduleRequest(
            soc=get_benchmark("d695"), total_width=16, solver="best",
            options={"workers": -1},
        )
        with pytest.raises(SolverError, match="non-negative"):
            get_default_session().solve(request)

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
        # The solver's own option validation fires, identically on the
        # serial and pooled paths.
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        jobs = [
            ScheduleJob(
                index=index, soc=soc.name, width=16, solver="best",
                options={"bogus": 1},
            )
            for index in range(2)
        ]
        with pytest.raises(SolverError, match="does not understand options"):
            run_jobs(jobs, context, workers=0)
        with FlatExecutor(retry_backoff=0.0) as executor:
            with pytest.raises(SolverError, match="does not understand options"):
                executor.run_jobs(jobs, context, workers=2)


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

    def test_reused_pool_reports_its_worker_count(self):
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        jobs = [ScheduleJob(index=i, soc=soc.name, width=w)
                for i, w in enumerate((12, 16, 20))]
        with FlatExecutor() as executor:
            first = executor.run_jobs(jobs, context, workers=2)
            second = executor.run_jobs(jobs, context, workers=2)  # warm pool
        assert first.stats.workers == second.stats.workers == 2

    def test_default_executor_is_shared(self):
        assert get_default_executor() is get_default_executor()


class TestObservableDegrade:
    """Pool-creation failure warns and marks the results -- never silent."""

    @pytest.fixture
    def broken_pools(self, monkeypatch):
        class BrokenContext:
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


def results_identical(left, right):
    """Record-for-record equality, schedules compared by fingerprint."""
    return tuple(left) == tuple(right) and all(
        schedule_fingerprint(a.schedule) == schedule_fingerprint(b.schedule)
        for a, b in zip(left, right)
    )


def table1_row(soc_name, width, grid):
    """The Table 1 jobs of one width: three ``best`` jobs, one per mode."""
    return table1_jobs(get_benchmark(soc_name), (width,), **grid)


class TestJobDispatch:
    """Pooled job lists reproduce the serial reference under every knob."""

    @pytest.mark.parametrize(
        "soc_name,width,grid",
        [("d695", 32, SMALL_GRID), ("p93791", 64, TRIM_GRID)],
    )
    def test_worker_counts_match_serial_reference(self, soc_name, width, grid):
        jobs, context = table1_row(soc_name, width, grid)
        serial = run_jobs(jobs, context, workers=0)
        for workers in (1, 2, 4):
            parallel = run_jobs(jobs, context, workers=workers)
            assert results_identical(parallel, serial)

    def test_spawn_pool_stays_identical(self, monkeypatch):
        # Under spawn the SOCs travel through the pool's initargs and the
        # workers build their caches in the initializer.
        monkeypatch.setattr(
            executor_module,
            "preferred_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        jobs, context = table1_row("d695", 32, TRIM_GRID)
        serial = run_jobs(jobs, context, workers=0)
        with FlatExecutor() as executor:
            pooled = executor.run_jobs(jobs, context, workers=2)
            assert results_identical(pooled, serial)
            assert executor.last_stats is not None
            assert executor.last_stats.workers == 2

    @pytest.mark.parametrize("chunk", [1, 2, 5, 999])
    def test_every_chunk_size_stays_identical(self, chunk):
        soc = get_benchmark("d695")
        context = EngineContext.for_soc(soc)
        jobs = [
            ScheduleJob(index=i, soc=soc.name, width=w, solver="best", options=SMALL_GRID)
            for i, w in enumerate((12, 16, 20, 24, 28))
        ]
        serial = run_jobs(jobs, context, workers=0)
        with FlatExecutor() as executor:
            pooled = executor.run_jobs(jobs, context, workers=2, chunksize=chunk)
        assert results_identical(pooled, serial)

    def test_watchdog_trips_on_a_hung_job(self):
        # A hang must trip the watchdog and resurrect the pool without
        # losing the other jobs' results.
        jobs, context = table1_row("d695", 32, SMALL_GRID)
        serial = run_jobs(jobs, context, workers=0)
        plan = FaultPlan.from_dict(
            {"faults": [{"kind": "hang", "match": ":i1", "attempts": [1],
                         "seconds": 30.0}]}
        )
        with FlatExecutor(
            fault_plan=plan, task_deadline=1.0, retry_backoff=0.0
        ) as executor:
            pooled = executor.run_jobs(jobs, context, workers=2)
        assert [r.makespan for r in pooled] == [r.makespan for r in serial]
        assert pooled.recovery_events  # the stall was journalled
        assert dict(pooled[1].metadata)["recovery_events"] == "resurrected:stalled"

    def test_chunksize_derivation(self):
        assert _resolve_chunksize(3, 2) == 1  # short queues stay unbatched
        assert _resolve_chunksize(100, 4) == 2
        assert _resolve_chunksize(5000, 4) == 64  # capped
        assert _resolve_chunksize(0, 0) == 1


def job_tasks(soc_name, width, grid):
    """The pickled tasks a pooled run of one Table 1 row would dispatch."""
    jobs, context = table1_row(soc_name, width, grid)
    tasks = [
        _JobTask(job_index=index, job=job, constraints=context.resolve(job)[1])
        for index, job in enumerate(jobs)
    ]
    return tasks, context


@pytest.fixture
def worker_universe(monkeypatch):
    """Install a SOC universe in this process as a pool initializer would.

    The SOCs cross a pickle round trip first, exactly as they reach spawn
    and forkserver workers through ``initargs``; the worker globals are
    restored afterwards.
    """
    for name in ("_WORKER_SOCS", "_WORKER_FAULTS"):
        monkeypatch.setattr(executor_module, name, getattr(executor_module, name))

    def install(*socs):
        shipped = pickle.loads(pickle.dumps({soc.name: soc for soc in socs}))
        width = SchedulerConfig().max_core_width
        _init_worker(shipped, [(soc.name, width) for soc in socs])
        return executor_module._WORKER_SOCS

    return install


TASK_CASES = [("d695", 32, SMALL_GRID), ("p93791", 64, TRIM_GRID)]


class TestJobTaskEncoding:
    """A job travels as one pickled ``_JobTask`` and runs anywhere."""

    @pytest.mark.parametrize("soc_name,width,grid", TASK_CASES)
    def test_tasks_survive_a_pickle_round_trip(self, soc_name, width, grid):
        tasks, _ = job_tasks(soc_name, width, grid)
        assert len(tasks) == 3
        for task in tasks:
            shipped = pickle.loads(pickle.dumps(task))
            assert shipped == task
            assert task_fingerprint(shipped) == task_fingerprint(task)

    @pytest.mark.parametrize("soc_name,width,grid", TASK_CASES)
    def test_in_process_tasks_reproduce_the_serial_results(
        self, worker_universe, soc_name, width, grid
    ):
        tasks, context = job_tasks(soc_name, width, grid)
        serial = [execute_job(task.job, context) for task in tasks]
        worker_universe(get_benchmark(soc_name))
        for task, want in zip(tasks, serial):
            job_index, have = _execute_task(task)
            assert job_index == task.job_index
            assert have == want
            assert schedule_fingerprint(have.schedule) == schedule_fingerprint(
                want.schedule
            )

    def test_chunk_replies_follow_task_order(self, worker_universe):
        worker_universe(get_benchmark("d695"))
        tasks, _ = job_tasks("d695", 32, SMALL_GRID)
        replies = _execute_chunk(tuple(tasks))
        assert [reply[0] for reply in replies] == [task.job_index for task in tasks]

    def test_unknown_soc_key_ships_a_task_failure(self, worker_universe):
        worker_universe(get_benchmark("d695"))
        tasks, _ = job_tasks("d695", 32, SMALL_GRID)
        task = dataclasses.replace(
            tasks[0], job=dataclasses.replace(tasks[0].job, soc="absent"), attempt=2
        )
        job_index, payload = _execute_task(task)
        assert job_index == task.job_index
        assert isinstance(payload, _TaskFailure)
        assert payload.fingerprint == task_fingerprint(task)
        assert payload.attempt == 2
        assert isinstance(payload.exception, KeyError)

    def test_fingerprint_names_soc_width_solver_and_job(self):
        tasks, _ = job_tasks("d695", 32, SMALL_GRID)
        task = dataclasses.replace(
            tasks[0], job=dataclasses.replace(tasks[0].job, index=3)
        )
        assert task_fingerprint(task) == "job:d695:w32:best:i3"


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

    def test_job_lists_on_one_soc_share_the_pool(self):
        # The Table 1 row carries constraint sets the width list does not;
        # constraints travel inside tasks, so the pool is reused.
        soc = get_benchmark("d695")
        jobs, context = table1_row("d695", 32, SMALL_GRID)
        plain = EngineContext.for_soc(soc)
        widths = [ScheduleJob(index=i, soc=soc.name, width=w)
                  for i, w in enumerate((12, 16))]
        with FlatExecutor() as executor:
            executor.run_jobs(jobs, context, workers=2)
            first_pool = executor._pool
            assert first_pool is not None
            pooled = executor.run_jobs(widths, plain, workers=2)
            assert executor._pool is first_pool
        assert results_identical(pooled, run_jobs(widths, plain, workers=0))

    def test_a_new_soc_refreshes_the_pool(self):
        other = generate_soc(4100, name="refresh", profile=PROFILE)
        jobs, context = table1_row("d695", 32, SMALL_GRID)
        other_jobs, other_context = table1_jobs(other, (16,), **SMALL_GRID)
        with FlatExecutor() as executor:
            executor.run_jobs(jobs, context, workers=2)
            first_pool = executor._pool
            pooled = executor.run_jobs(other_jobs, other_context, workers=2)
            assert executor._pool is not first_pool
            assert set(executor._socs) == {"refresh"}
        assert results_identical(
            pooled, run_jobs(other_jobs, other_context, workers=0)
        )

    def test_closed_executor_rebuilds_for_the_next_run(self):
        jobs, context = table1_row("d695", 32, SMALL_GRID)
        serial = run_jobs(jobs, context, workers=0)
        executor = FlatExecutor()
        try:
            for _ in range(2):
                pooled = executor.run_jobs(jobs, context, workers=2)
                assert results_identical(pooled, serial)
                assert executor.pool_alive
                executor.close()
                assert not executor.pool_alive
        finally:
            executor.close()

    def test_pooled_run_reports_its_stats(self):
        jobs, context = table1_row("d695", 32, SMALL_GRID)
        with FlatExecutor() as executor:
            executor.run_jobs(jobs, context, workers=2)
            stats = executor.last_stats
        assert stats is not None
        assert (stats.jobs, stats.tasks, stats.decomposed_jobs) == (3, 3, 0)
        assert stats.workers == 2
        assert stats.failures == () and stats.recovery_events == ()


# Three pooled Table 1 rows, each followed by a pool teardown, so every
# run forks a fresh pool in a process that has already dispatched.
REPEATED_POOLED_RUNS = """
from repro.analysis.experiments import table1_jobs
from repro.engine.executor import get_default_executor
from repro.engine.runner import run_jobs
from repro.soc.benchmarks import get_benchmark

jobs, context = table1_jobs(get_benchmark("d695"), (32,))
for _ in range(3):
    results = run_jobs(jobs, context, workers=2)
    get_default_executor().close()
    print(",".join(str(result.makespan) for result in results))
"""


class TestCleanStderr:
    def test_repeated_pooled_runs_print_no_traceback(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-c", REPEATED_POOLED_RUNS],
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
            golden = json.load(handle)["makespans"]
        row = ",".join(
            str(golden[f"d695/table1/32/{mode}"])
            for mode in ("non_preemptive", "preemptive", "power_constrained")
        )
        assert proc.stdout.split() == [row] * 3
