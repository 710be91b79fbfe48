"""Chaos tests for the fault-tolerant executor (repro.engine.faults).

Two contracts are pinned here:

* **Determinism under faults.**  For every injected fault class -- worker
  kills, task exceptions, task hangs, pool-creation failures -- and for
  every worker count, the sweep engine returns results byte-identical to
  the fault-free serial reference (schedules compared by fingerprint).
  The job lists are Table 1 rows: one ``best`` job per scheduling mode.
  Randomized fault schedules are seeded, and injection is keyed on task
  fingerprints and attempt numbers, never wall-clock.
* **An observable recovery ladder.**  Every recovery path the executor
  takes (retry -> resurrect -> quarantine -> serial) surfaces as ordered
  ``RecoveryEvent``s on the executor stats, result metadata and the
  CSV/JSON export, with the structured fault journal (``FailureRecord``)
  explaining each step.
"""

import json
import random
import warnings
from pathlib import Path

import pytest

from repro.analysis.experiments import table1_jobs
from repro.analysis.perf import schedule_fingerprint
from repro.engine.executor import (
    DEFAULT_TASK_DEADLINE,
    ENV_TASK_DEADLINE,
    FlatExecutor,
)
from repro.engine.faults import (
    ENV_FAULT_PLAN,
    RECOVERY_LADDER,
    STAGE_PARALLEL,
    STAGE_QUARANTINED,
    STAGE_RESURRECTED,
    STAGE_SERIAL,
    FailureRecord,
    FaultAction,
    FaultPlan,
    FaultPlanError,
    RecoveryEvent,
    backoff_delay,
    encode_recovery_events,
    fingerprint_spread,
    ladder_stage,
)
from repro.engine.jobs import EngineContext, EngineError, ScheduleJob
from repro.engine.runner import run_jobs
from repro.soc.benchmarks import get_benchmark
from repro.soc.generator import GeneratorProfile, generate_soc

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

#: Short watchdog deadline for tests that stall a pool on purpose.
FAST_DEADLINE = 1.0


def chaos_executor(plan, deadline=FAST_DEADLINE):
    """A dedicated executor armed with ``plan``, zero backoff, fast watchdog."""
    return FlatExecutor(
        fault_plan=FaultPlan.from_dict(plan) if isinstance(plan, dict) else plan,
        task_deadline=deadline,
        retry_backoff=0.0,
    )


REPO_ROOT = Path(__file__).resolve().parent.parent


def runs_identical(faulted, serial):
    """Byte-identity of two engine runs (schedules by fingerprint).

    Metadata must match too, except for the ``recovery_events`` note the
    ladder deliberately adds to the jobs it touched.
    """
    if len(faulted) != len(serial):
        return False
    for have, want in zip(faulted, serial):
        metadata = dict(have.metadata)
        metadata.pop("recovery_events", None)
        if (
            have.job != want.job
            or have.makespan != want.makespan
            or schedule_fingerprint(have.schedule) != schedule_fingerprint(want.schedule)
            or metadata != dict(want.metadata)
        ):
            return False
    return True


# ----------------------------------------------------------------------
# Fault plan parsing and the deterministic backoff
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            actions=(
                FaultAction(kind="exception", match=":i3", attempts=(1, 2)),
                FaultAction(kind="kill", match=":i1"),
                FaultAction(kind="hang", match=":i0", seconds=30.0),
                FaultAction(kind="pool", count=2),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert plan.pool_failure_budget() == 2
        assert bool(plan) and not bool(FaultPlan())

    def test_task_action_matches_fingerprint_and_attempt(self):
        plan = FaultPlan(
            actions=(FaultAction(kind="exception", match=":i3", attempts=(1,)),)
        )
        assert plan.task_action("job:d695:w32:best:i3", 1) is not None
        assert plan.task_action("job:d695:w32:best:i3", 2) is None
        assert plan.task_action("job:d695:w32:best:i2", 1) is None
        # pool actions never fire task-side
        pool = FaultPlan(actions=(FaultAction(kind="pool"),))
        assert pool.task_action("job:d695:w32:best:i3", 1) is None

    @pytest.mark.parametrize(
        "payload",
        [
            '{"faults": [{"kind": "meteor"}]}',
            '{"faults": [{"kind": "kill", "attempts": [0]}]}',
            '{"faults": [{"kind": "hang", "seconds": 0}]}',
            '{"faults": [{"kind": "pool", "count": 0}]}',
            '{"faults": [{"kind": "kill", "surprise": 1}]}',
            '{"unknown": []}',
            '{"faults": "nope"}',
            "not json",
        ],
    )
    def test_bad_plans_raise_fault_plan_error(self, payload):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json(payload)

    def test_env_hook_inline_file_and_unset(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
        assert FaultPlan.from_env() is None
        inline = '{"faults": [{"kind": "pool"}]}'
        monkeypatch.setenv(ENV_FAULT_PLAN, inline)
        assert FaultPlan.from_env().pool_failure_budget() == 1
        path = tmp_path / "plan.json"
        path.write_text(inline)
        monkeypatch.setenv(ENV_FAULT_PLAN, str(path))
        assert FaultPlan.from_env().pool_failure_budget() == 1
        monkeypatch.setenv(ENV_FAULT_PLAN, str(tmp_path / "missing.json"))
        with pytest.raises(FaultPlanError):
            FaultPlan.from_env()

    def test_backoff_is_deterministic_bounded_and_exponential(self):
        fp = "job:d695:w32:best:i1"
        assert backoff_delay(fp, 1, 0.05) == backoff_delay(fp, 1, 0.05)
        assert backoff_delay(fp, 2, 0.05) == 2 * backoff_delay(fp, 1, 0.05)
        assert 1.0 <= fingerprint_spread(fp) < 1.16
        assert backoff_delay(fp, 3, 0.0) == 0.0  # base <= 0 disables

    def test_ladder_helpers(self):
        events = (
            RecoveryEvent(STAGE_PARALLEL, "retried", task="t"),
            RecoveryEvent(STAGE_RESURRECTED, "stalled"),
        )
        assert ladder_stage(()) == STAGE_PARALLEL
        assert ladder_stage(events) == STAGE_RESURRECTED
        assert RECOVERY_LADDER.index(STAGE_SERIAL) == len(RECOVERY_LADDER) - 1
        assert encode_recovery_events(events) == (
            "parallel:retried@t>resurrected:stalled"
        )
        record = FailureRecord(
            kind="task-error", task="t", attempt=2, error="E: x", action="retry"
        )
        assert FailureRecord.from_dict(record.to_dict()) == record
        assert RecoveryEvent.from_dict(events[0].to_dict()) == events[0]


# ----------------------------------------------------------------------
# Exact recovery paths per fault class (single-fault plans, d695)
# ----------------------------------------------------------------------
def table1_row(soc, width, **grid):
    """One Table 1 row: three ``best`` jobs (i0..i2), one per mode."""
    return table1_jobs(soc, (width,), **grid)


class TestRecoveryLadder:
    """Each fault class takes exactly its rung of the ladder -- and the
    run stays byte-identical to the fault-free serial reference."""

    @pytest.fixture
    def row(self):
        return table1_row(get_benchmark("d695"), 32, **TRIM_GRID)

    @pytest.fixture
    def serial(self, row):
        return run_jobs(*row, workers=0)

    def faulted_run(self, row, plan, deadline=FAST_DEADLINE):
        with chaos_executor(plan, deadline=deadline) as executor:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                results = executor.run_jobs(*row, workers=2)
        return results, executor

    def test_clean_run_has_no_events(self, row, serial):
        with FlatExecutor() as executor:
            results = executor.run_jobs(*row, workers=2)
        assert runs_identical(results, serial)
        assert results.recovery_events == ()
        assert executor.last_failures == ()
        for result in results:
            assert "recovery_events" not in dict(result.metadata)
            assert "degraded_to_serial" not in dict(result.metadata)

    def test_transient_exception_retries_on_the_parallel_rung(self, row, serial):
        fp = "job:d695:w32:best:i1"
        plan = {"faults": [{"kind": "exception", "match": fp, "attempts": [1]}]}
        results, executor = self.faulted_run(row, plan)
        assert runs_identical(results, serial)
        assert results.recovery_events == (
            RecoveryEvent(STAGE_PARALLEL, "retried", task=fp),
        )
        assert not results.degraded_to_serial
        assert dict(results[1].metadata)["recovery_events"] == f"parallel:retried@{fp}"
        assert "recovery_events" not in dict(results[0].metadata)
        (record,) = executor.last_failures
        assert record.kind == "task-error" and record.action == "retry"
        assert record.task == fp and record.attempt == 1
        assert record.error.startswith("InjectedFault:")

    def test_worker_kill_resurrects_the_pool(self, row, serial):
        plan = {"faults": [{"kind": "kill", "match": "d695:w32:best:i1", "attempts": [1]}]}
        results, executor = self.faulted_run(row, plan)
        assert runs_identical(results, serial)
        assert results.recovery_events == (
            RecoveryEvent(STAGE_RESURRECTED, "stalled"),
        )
        assert ladder_stage(results.recovery_events) == STAGE_RESURRECTED
        (record,) = executor.last_failures
        assert record.kind == "pool-stall" and record.action == "resurrect"
        assert "unacknowledged" in record.error

    def test_persistent_hang_is_quarantined(self, row, serial):
        fp = "job:d695:w32:best:i2"
        # Hang on *every* attempt: only quarantine can terminate the run.
        plan = {
            "faults": [
                {
                    "kind": "hang",
                    "match": fp,
                    "attempts": [1, 2, 3, 4, 5, 6],
                    "seconds": 60.0,
                }
            ]
        }
        results, executor = self.faulted_run(row, plan)
        assert runs_identical(results, serial)
        assert results.recovery_events == (
            RecoveryEvent(STAGE_RESURRECTED, "stalled"),
            RecoveryEvent(STAGE_QUARANTINED, "stalled", task=fp),
        )
        assert ladder_stage(results.recovery_events) == STAGE_QUARANTINED
        quarantines = [
            record for record in executor.last_failures
            if record.action == "quarantine"
        ]
        assert [record.task for record in quarantines] == [fp]

    def test_pool_creation_failure_degrades_to_serial(self, row, serial):
        plan = {"faults": [{"kind": "pool", "count": 1}]}
        with chaos_executor(plan) as executor:
            with pytest.warns(RuntimeWarning, match="degrading to the serial"):
                results = executor.run_jobs(*row, workers=2)
        assert runs_identical(results, serial)
        assert results.recovery_events == (
            RecoveryEvent(STAGE_SERIAL, "pool-creation"),
        )
        assert results.degraded_to_serial
        assert results.stats.workers == 0
        # An entry degrade stays out of job metadata: results match serial.
        assert tuple(results) == tuple(serial)

    def test_pool_fault_combined_with_task_faults_stays_serial(self, row, serial):
        plan = {
            "faults": [
                {"kind": "kill", "match": "d695:w32:best:i0", "attempts": [1]},
                {"kind": "pool", "count": 1},
            ]
        }
        # The entry pool creation consumes the pool budget, so the run is
        # serial from the start and the kill never fires; identity and the
        # serial rung must hold regardless.
        results, _ = self.faulted_run(row, plan)
        assert runs_identical(results, serial)
        assert results.recovery_events[-1].stage == STAGE_SERIAL

    def test_repeat_killer_task_is_quarantined(self, row, serial):
        # A task that takes its pool down twice (kill on attempts 1 and 2)
        # must be quarantined to an in-process run -- never handed to a
        # worker again -- and the run still finishes identically.
        fp = "job:d695:w32:best:i0"
        plan = {"faults": [{"kind": "kill", "match": fp, "attempts": [1, 2]}]}
        results, executor = self.faulted_run(row, plan)
        assert runs_identical(results, serial)
        assert results.recovery_events == (
            RecoveryEvent(STAGE_RESURRECTED, "stalled"),
            RecoveryEvent(STAGE_QUARANTINED, "stalled", task=fp),
        )
        assert executor.last_failures[-1].action == "quarantine"


# ----------------------------------------------------------------------
# Randomized chaos schedules stay bit-identical across worker counts
# ----------------------------------------------------------------------
def random_plan(rng, fingerprints):
    """A seeded random fault schedule over the run's task fingerprints."""
    actions = []
    for fingerprint in rng.sample(fingerprints, rng.randint(1, min(3, len(fingerprints)))):
        kind = rng.choice(("exception", "exception", "kill"))
        attempts = rng.choice(((1,), (1, 2)))
        if kind == "kill":
            attempts = (1,)  # one kill costs one watchdog window; keep tests fast
        actions.append(FaultAction(kind=kind, match=fingerprint, attempts=attempts))
    if rng.random() < 0.25:
        actions.append(FaultAction(kind="pool", count=1))
    return FaultPlan(actions=tuple(actions))


class TestRandomizedChaosIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_plans_across_worker_counts(self, seed):
        rng = random.Random(8200 + seed)
        soc = generate_soc(8200 + seed, name=f"chaos-{seed}", profile=PROFILE)
        width = rng.choice((16, 24))
        row = table1_row(soc, width, **SMALL_GRID)
        serial = run_jobs(*row, workers=0)
        fingerprints = [
            f"job:{soc.name}:w{width}:best:i{job.index}" for job in row[0]
        ]
        plan = random_plan(rng, fingerprints)
        for workers in (0, 2, 4):
            with chaos_executor(plan) as executor:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    results = executor.run_jobs(*row, workers=workers)
            assert runs_identical(results, serial), (
                f"seed {seed} workers {workers} diverged under {plan.to_json()}"
            )
            if workers == 0:
                assert results.recovery_events == ()

    @pytest.mark.parametrize("seed", range(2))
    def test_randomized_engine_jobs_under_faults(self, seed):
        # Mixed paper/best jobs, one fault on every job and a second on
        # one of them.  Faulted results must match the serial reference
        # except for the recovery_events metadata the ladder deliberately
        # adds to affected jobs.
        rng = random.Random(9300 + seed)
        soc = generate_soc(9300 + seed, name=f"chaosjob-{seed}", profile=PROFILE)
        context = EngineContext.for_soc(soc)
        jobs = []
        for index in range(4):
            solver = rng.choice(("paper", "best"))
            jobs.append(
                ScheduleJob(
                    index=index,
                    soc=soc.name,
                    width=rng.choice((10, 16)),
                    solver=solver,
                    options=SMALL_GRID if solver == "best" else {},
                    group=(soc.name,),
                )
            )
        serial = run_jobs(jobs, context, workers=0)
        plan = FaultPlan(
            actions=(
                FaultAction(kind="exception", match=f"job:{soc.name}:", attempts=(1,)),
                FaultAction(kind="exception", match=":i1", attempts=(1, 2)),
            )
        )
        with chaos_executor(plan) as executor:
            parallel = executor.run_jobs(jobs, context, workers=2)
        assert runs_identical(parallel, serial)
        stats = parallel.stats
        assert stats.retries == len(jobs) + 1
        assert stats.recovery_stage == STAGE_PARALLEL
        assert all(
            event.stage == STAGE_PARALLEL for event in stats.recovery_events
        )


# ----------------------------------------------------------------------
# Acceptance: default-grid Table 1 rows on the paper benchmarks
# ----------------------------------------------------------------------
class TestFullGridAcceptance:
    """Under every injected fault class, the default-grid Table 1 row on
    d695 and p93791 is byte-identical to the fault-free serial run,
    completes without deadlock, and reports its recovery path."""

    CASES = {
        "exception": {"kind": "exception", "attempts": [1]},
        "kill": {"kind": "kill", "attempts": [1]},
        "hang": {"kind": "hang", "attempts": [1], "seconds": 60.0},
        "pool": {"kind": "pool", "count": 1},
    }
    EXPECTED_STAGE = {
        "exception": STAGE_PARALLEL,
        "kill": STAGE_RESURRECTED,
        "hang": STAGE_RESURRECTED,
        "pool": STAGE_SERIAL,
    }
    TARGET = {("d695", 32): "d695:w32:best:i1", ("p93791", 64): "p93791:w64:best:i1"}

    @pytest.fixture(scope="class")
    def references(self):
        references = {}
        for soc_name, width in self.TARGET:
            row = table1_row(get_benchmark(soc_name), width)
            references[(soc_name, width)] = (row, run_jobs(*row, workers=0))
        return references

    @pytest.mark.parametrize("soc_name,width", [("d695", 32), ("p93791", 64)])
    @pytest.mark.parametrize("fault", sorted(CASES))
    def test_full_grid_identity_under_fault(
        self, references, soc_name, width, fault
    ):
        row, serial = references[(soc_name, width)]
        action = dict(self.CASES[fault])
        if action["kind"] != "pool":
            action["match"] = self.TARGET[(soc_name, width)]
        plan = {"faults": [action]}
        with chaos_executor(plan) as executor:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                results = executor.run_jobs(*row, workers=2)
        assert runs_identical(results, serial)
        assert results.recovery_events != ()
        assert ladder_stage(results.recovery_events) == self.EXPECTED_STAGE[fault]


# ----------------------------------------------------------------------
# Recovery surfaces: stats, metadata, CSV/JSON export, chaos CLI
# ----------------------------------------------------------------------
class TestRecoverySurfaces:
    @pytest.fixture
    def paper_jobs(self):
        soc = get_benchmark("d695")
        jobs = [
            ScheduleJob(index=0, soc=soc.name, width=16),
            ScheduleJob(index=1, soc=soc.name, width=20),
        ]
        return jobs, EngineContext.for_soc(soc)

    def test_stats_counters_and_derived_properties(self, paper_jobs):
        plan = {"faults": [{"kind": "exception", "match": ":i0", "attempts": [1]}]}
        with chaos_executor(plan) as executor:
            results = executor.run_jobs(*paper_jobs, workers=2)
        stats = results.stats
        assert stats.retries == 1
        assert stats.resurrections == 0 and stats.quarantined == 0
        assert stats.recovery_stage == STAGE_PARALLEL
        assert not stats.degraded_to_serial
        assert results.recovery_events == stats.recovery_events
        fp = "job:d695:w16:paper:i0"
        assert stats.recovery_events == (
            RecoveryEvent(STAGE_PARALLEL, "retried", task=fp),
        )
        assert stats.failures[0].task == fp

    def test_retry_exhaustion_reraises_the_task_error(self, paper_jobs):
        plan = {
            "faults": [
                {"kind": "exception", "match": ":i0", "attempts": [1, 2, 3, 4]},
            ]
        }
        with chaos_executor(plan) as executor:
            with pytest.raises(Exception) as excinfo:
                executor.run_jobs(*paper_jobs, workers=2)
        assert "injected fault" in str(excinfo.value)
        assert any(
            record.action == "raise" for record in executor.last_failures
        )

    def test_recovery_events_column_in_csv_export(self, paper_jobs):
        plan = {"faults": [{"kind": "exception", "match": ":i0", "attempts": [1]}]}
        with chaos_executor(plan) as executor:
            results = executor.run_jobs(*paper_jobs, workers=2)
        csv_text = results.to_csv()
        header, row = csv_text.splitlines()[:2]
        assert "recovery_events" in header.split(",")
        assert "parallel:retried@" in row

    def test_json_export_reports_the_ladder(self):
        row = table1_row(get_benchmark("d695"), 32, **TRIM_GRID)
        fp = "job:d695:w32:best:i1"
        plan = {"faults": [{"kind": "exception", "match": fp, "attempts": [1]}]}
        with chaos_executor(plan) as executor:
            results = executor.run_jobs(*row, workers=2)
        records = json.loads(results.to_json())
        assert records[1]["recovery_events"] == f"parallel:retried@{fp}"
        assert records[0]["recovery_events"] == ""

    def test_chaos_cli_round_trip(self, tmp_path):
        from repro import cli

        journal = tmp_path / "journal.json"
        plan = json.dumps(
            {"faults": [{"kind": "exception", "match": ":i1", "attempts": [1]}]}
        )
        code = cli.main(
            ["chaos", "d695", "32", "--plan", plan, "--journal", str(journal)]
        )
        assert code == 0
        payload = json.loads(journal.read_text())
        assert payload["identical"] is True
        assert payload["stage"] == STAGE_PARALLEL
        assert payload["recovery_events"]
        assert payload["failures"][0]["action"] == "retry"
        assert set(payload["makespans"]) == {
            f"d695/table1/32/{mode}"
            for mode in ("non_preemptive", "preemptive", "power_constrained")
        }

    def test_committed_fault_plan_fires_and_matches_golden(self, tmp_path, capsys):
        # The CI chaos step's plan must keep matching real job fingerprints:
        # on d695/32 it injects one exception and one kill.
        from repro import cli

        journal = tmp_path / "journal.json"
        code = cli.main(
            [
                "chaos", "d695", "32",
                "--plan", str(REPO_ROOT / "benchmarks" / "fault_plan.json"),
                "--deadline", "1",
                "--journal", str(journal),
                "--check-golden", str(REPO_ROOT / "benchmarks" / "golden_makespans.json"),
            ]
        )
        assert code == 0, capsys.readouterr().err
        failures = json.loads(journal.read_text())["failures"]
        assert [(record["kind"], record["action"]) for record in failures] == [
            ("task-error", "retry"),
            ("pool-stall", "resurrect"),
        ]

    def test_chaos_cli_flags_a_vacuous_plan(self, capsys):
        # A plan whose fingerprints match no task injects nothing; the run
        # is trivially identical, and the harness must say so, not pass.
        from repro import cli

        plan = json.dumps(
            {"faults": [{"kind": "kill", "match": "grid:d695:", "attempts": [1]}]}
        )
        code = cli.main(["chaos", "d695", "32", "--plan", plan])
        assert code == 1
        assert "CHAOS VACUOUS" in capsys.readouterr().err

    def test_chaos_cli_rejects_an_soc_file_with_constraints(self, tmp_path, capsys):
        # Chaos runs the three Table 1 mode constraint sets; it must not
        # silently drop the constraints an SOC description file carries.
        from repro import cli
        from repro.soc.constraints import ConstraintSet
        from repro.soc.itc02 import save_soc

        path = tmp_path / "d695.soc"
        save_soc(get_benchmark("d695"), path, ConstraintSet(power_max=5000.0))
        code = cli.main(["chaos", str(path), "32"])
        assert code == 2
        assert "constraints" in capsys.readouterr().err

    def test_chaos_cli_separates_a_solver_error_from_the_ladder(
        self, monkeypatch, capsys
    ):
        # A request error in the faulted run is a usage error (exit 2),
        # not an unrecovered fault plan (exit 1).
        from repro import cli
        from repro.engine import executor as executor_module
        from repro.solvers import SolverError

        serial_run_jobs = executor_module.FlatExecutor.run_jobs

        def reject(self, jobs, context, workers=0, **kwargs):
            if workers == 0:  # the fault-free serial reference
                return serial_run_jobs(self, jobs, context, workers=0, **kwargs)
            raise SolverError("rejected")

        monkeypatch.setattr(executor_module.FlatExecutor, "run_jobs", reject)
        code = cli.main(["chaos", "d695", "16"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: faulted solve failed: rejected" in err
        assert "CHAOS UNRECOVERED" not in err

    def test_chaos_cli_rejects_bad_plan(self, capsys):
        from repro import cli

        code = cli.main(["chaos", "d695", "16", "--plan", '{"faults": "x"}'])
        assert code == 2
        assert "bad fault plan" in capsys.readouterr().err

    def test_chaos_cli_reports_unrecoverable_plan(self, tmp_path, capsys):
        # A persistent exception past the retry budget re-raises by design;
        # the CLI turns that into exit 1 + the journal trail, not a traceback.
        from repro import cli

        journal = tmp_path / "journal.json"
        plan = json.dumps(
            {
                "faults": [
                    {
                        "kind": "exception",
                        "match": "d695:w32:best:i0",
                        "attempts": [1, 2, 3, 4, 5, 6],
                    }
                ]
            }
        )
        code = cli.main(
            ["chaos", "d695", "32", "--plan", plan, "--journal", str(journal)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "CHAOS UNRECOVERED" in err
        payload = json.loads(journal.read_text())
        assert "InjectedFault" in payload["unrecovered_error"]
        assert payload["failures"][-1]["action"] == "raise"


# ----------------------------------------------------------------------
# Watchdog and retry configuration
# ----------------------------------------------------------------------
class TestExecutorConfiguration:
    def test_deadline_defaults_and_env_override(self, monkeypatch):
        monkeypatch.delenv(ENV_TASK_DEADLINE, raising=False)
        with FlatExecutor() as executor:
            assert executor._task_deadline == DEFAULT_TASK_DEADLINE
        monkeypatch.setenv(ENV_TASK_DEADLINE, "7.5")
        with FlatExecutor() as executor:
            assert executor._task_deadline == 7.5
        monkeypatch.setenv(ENV_TASK_DEADLINE, "0")
        with FlatExecutor() as executor:
            assert executor._task_deadline is None  # watchdog disabled
        monkeypatch.setenv(ENV_TASK_DEADLINE, "soon")
        with pytest.raises(EngineError):
            FlatExecutor()

    def test_explicit_deadline_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_TASK_DEADLINE, "7.5")
        with FlatExecutor(task_deadline=2.0) as executor:
            assert executor._task_deadline == 2.0

    def test_negative_retries_rejected(self):
        with pytest.raises(EngineError):
            FlatExecutor(max_task_retries=-1)
