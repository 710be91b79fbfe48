"""Tests for the parallel parameter-sweep engine (repro.engine)."""

import itertools
import json
import os
import subprocess
import sys

import pytest

from repro.core.data_volume import sweep_tam_widths
from repro.core.grid_sweep import run_grid_sweep
from repro.core.scheduler import SchedulerConfig
from repro.engine import (
    EngineContext,
    EngineError,
    JobResult,
    ScheduleJob,
    SweepResults,
    mode_constraint_sets,
    parallel_tam_sweep,
    run_jobs,
)
from repro.analysis.experiments import run_table1, run_table2
from repro.schedule.schedule import TestSchedule

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A grid small enough to keep the pool tests fast but large enough to spread
# over several workers.
SMALL_PERCENTS = (1, 5, 10)
SMALL_DELTAS = (0, 2)
SMALL_SLACKS = (0, 3)


def _grid_jobs(soc_name, width, percents, deltas, slacks, constraints=None, start=0):
    """One ``paper`` job per (percent, delta, slack) point, percent outermost."""
    points = itertools.product(percents, deltas, slacks)
    return [
        ScheduleJob(
            index=start + offset,
            soc=soc_name,
            width=width,
            config=SchedulerConfig(percent=percent, delta=delta, insertion_slack=slack),
            constraints=constraints,
        )
        for offset, (percent, delta, slack) in enumerate(points)
    ]


class TestJobsAndContext:
    def test_job_validation(self):
        with pytest.raises(EngineError):
            ScheduleJob(index=-1, soc="s", width=8)
        with pytest.raises(EngineError):
            ScheduleJob(index=0, soc="s", width=0)

    @pytest.mark.parametrize(
        "field, value", [("index", 0.5), ("index", True), ("width", 16.5), ("width", True)]
    )
    def test_job_rejects_non_integer_index_and_width(self, field, value):
        fields = {"index": 0, "soc": "s", "width": 16, field: value}
        with pytest.raises(EngineError, match=f"job {field} must be an integer"):
            ScheduleJob(**fields)

    def test_job_tags(self):
        job = ScheduleJob(index=0, soc="s", width=8, tags=(("mode", "np"),))
        assert job.tag("mode") == "np"
        assert job.tag("missing", default="d") == "d"

    def test_context_resolves_soc_and_constraints(self, small_soc):
        constraints = mode_constraint_sets(small_soc)
        context = EngineContext.for_soc(small_soc, constraints)
        job = ScheduleJob(index=0, soc=small_soc.name, width=8, constraints="preemptive")
        soc, resolved = context.resolve(job)
        assert soc is context.socs[small_soc.name]
        assert resolved is context.constraints["preemptive"]

    def test_context_rejects_unknown_references(self, small_soc):
        context = EngineContext.for_soc(small_soc)
        with pytest.raises(EngineError):
            context.resolve(ScheduleJob(index=0, soc="nope", width=8))
        with pytest.raises(EngineError):
            context.resolve(
                ScheduleJob(index=0, soc=small_soc.name, width=8, constraints="nope")
            )

    def test_run_jobs_rejects_duplicate_indexes(self, small_soc):
        context = EngineContext.for_soc(small_soc)
        jobs = [
            ScheduleJob(index=0, soc=small_soc.name, width=8),
            ScheduleJob(index=0, soc=small_soc.name, width=16),
        ]
        with pytest.raises(EngineError):
            run_jobs(jobs, context)


class TestSerialParallelEquality:
    @pytest.fixture
    def context_and_jobs(self, small_soc):
        context = EngineContext.for_soc(small_soc)
        jobs = _grid_jobs(small_soc.name, 12, SMALL_PERCENTS, SMALL_DELTAS, SMALL_SLACKS)
        return context, jobs

    def test_parallel_results_bit_identical_to_serial(self, context_and_jobs):
        context, jobs = context_and_jobs
        serial = run_jobs(jobs, context, workers=0)
        parallel = run_jobs(jobs, context, workers=3)
        assert len(serial) == len(parallel) == len(jobs)
        for left, right in zip(serial, parallel):
            assert left == right  # JobResult equality ignores wall_time/worker
            assert left.schedule == right.schedule
            assert left.schedule.segments == right.schedule.segments

    def test_best_jobs_match_run_grid_sweep(self, small_soc):
        reference = run_grid_sweep(
            small_soc,
            12,
            percents=SMALL_PERCENTS,
            deltas=SMALL_DELTAS,
            slacks=SMALL_SLACKS,
        )
        job = ScheduleJob(
            index=0,
            soc=small_soc.name,
            width=12,
            solver="best",
            options={
                "percents": SMALL_PERCENTS,
                "deltas": SMALL_DELTAS,
                "slacks": SMALL_SLACKS,
            },
        )
        context = EngineContext.for_soc(small_soc)
        for workers in (0, 1, 3):
            (result,) = run_jobs([job], context, workers=workers)
            assert result.makespan == reference.makespan
            assert result.schedule == reference.schedule

    def test_run_table1_cells_match_direct_sweeps(self, small_soc):
        widths = (8, 12)
        grid = dict(percents=SMALL_PERCENTS, deltas=SMALL_DELTAS, slacks=SMALL_SLACKS)
        constraints = mode_constraint_sets(small_soc)
        rows = run_table1(small_soc, widths=widths, workers=0, **grid)
        assert [row.width for row in rows] == list(widths)
        for row in rows:
            cells = {
                "non_preemptive": None,
                "preemptive": constraints["preemptive"],
                "power_constrained": constraints["power_constrained"],
            }
            for column, mode_constraints in cells.items():
                direct = run_grid_sweep(
                    small_soc, row.width, constraints=mode_constraints, **grid
                )
                assert getattr(row, column) == direct.makespan, (row.width, column)

    def test_parallel_tam_sweep_matches_serial_sweep(self, small_soc):
        widths = tuple(range(4, 17, 4))
        reference = sweep_tam_widths(small_soc, widths)
        for workers in (0, 2):
            assert parallel_tam_sweep(small_soc, widths, workers=workers) == reference

    def test_run_table1_identical_across_worker_counts(self, small_soc):
        kwargs = dict(
            widths=(8, 12),
            percents=SMALL_PERCENTS,
            deltas=SMALL_DELTAS,
            slacks=SMALL_SLACKS,
        )
        serial = run_table1(small_soc, workers=0, **kwargs)
        parallel = run_table1(small_soc, workers=4, **kwargs)
        assert serial == parallel

    def test_run_table2_identical_across_worker_counts(self, small_soc):
        widths = tuple(range(4, 17, 4))
        serial_rows, serial_sweep = run_table2(
            small_soc, alphas=(0.25, 0.75), widths=widths, workers=0
        )
        parallel_rows, parallel_sweep = run_table2(
            small_soc, alphas=(0.25, 0.75), widths=widths, workers=2
        )
        assert serial_rows == parallel_rows
        assert serial_sweep == parallel_sweep

    def test_constrained_modes_identical_across_worker_counts(self, small_soc):
        constraints = mode_constraint_sets(small_soc)
        context = EngineContext.for_soc(small_soc, constraints)
        jobs = []
        for mode in (None, "preemptive", "power_constrained"):
            jobs.extend(
                _grid_jobs(
                    small_soc.name, 10, (1, 5), (0, 2), (3,), constraints=mode, start=len(jobs)
                )
            )
        serial = run_jobs(jobs, context, workers=0)
        parallel = run_jobs(jobs, context, workers=3)
        assert tuple(serial) == tuple(parallel)


class TestWorkerEdgeCases:
    def test_empty_job_list(self, small_soc):
        results = run_jobs([], EngineContext.for_soc(small_soc), workers=4)
        assert len(results) == 0
        assert list(results) == []

    def test_negative_workers_rejected(self, small_soc):
        context = EngineContext.for_soc(small_soc)
        job = ScheduleJob(index=0, soc=small_soc.name, width=8)
        with pytest.raises(EngineError):
            run_jobs([job], context, workers=-1)

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_single_job(self, small_soc, workers):
        context = EngineContext.for_soc(small_soc)
        job = ScheduleJob(index=0, soc=small_soc.name, width=8)
        results = run_jobs([job], context, workers=workers)
        assert len(results) == 1
        assert results[0].makespan == results[0].schedule.makespan > 0

    def test_more_workers_than_jobs(self, small_soc):
        context = EngineContext.for_soc(small_soc)
        jobs = [
            ScheduleJob(index=i, soc=small_soc.name, width=width)
            for i, width in enumerate((6, 10))
        ]
        capped = run_jobs(jobs, context, workers=64)
        serial = run_jobs(jobs, context, workers=0)
        assert tuple(capped) == tuple(serial)


def _result_with(index, group, makespan):
    """A synthetic JobResult for ordering tests (no scheduling involved)."""
    job = ScheduleJob(index=index, soc="s", width=4, group=group)
    schedule = TestSchedule(soc_name="s", total_width=4, segments=())
    return JobResult(job=job, makespan=makespan, data_volume=0, schedule=schedule)


class TestResults:
    def test_results_sorted_by_job_index(self):
        results = SweepResults((_result_with(1, (), 5), _result_with(0, (), 3)))
        assert [result.job.index for result in results] == [0, 1]

    def test_csv_and_json_export(self, tmp_path, small_soc):
        context = EngineContext.for_soc(small_soc)
        jobs = [
            ScheduleJob(
                index=i,
                soc=small_soc.name,
                width=width,
                group=("export",),
                tags=(("mode", "non_preemptive"),),
            )
            for i, width in enumerate((6, 10))
        ]
        results = run_jobs(jobs, context, workers=0)
        csv_text = results.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("index,soc,width,percent,delta")
        assert lines[0].endswith(",mode")
        assert len(lines) == 3
        records = json.loads(results.to_json())
        assert [record["width"] for record in records] == [6, 10]
        assert all(record["mode"] == "non_preemptive" for record in records)
        assert all(record["makespan"] > 0 for record in records)

        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        results.save_csv(csv_path)
        results.save_json(json_path)
        assert csv_path.read_text(encoding="utf-8") == csv_text
        assert json.loads(json_path.read_text(encoding="utf-8")) == records


class TestCollectionHygiene:
    def test_collect_only_reports_no_errors_or_warnings(self):
        """The seed suite had 8 collection errors; collection must stay clean."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "ERROR" not in result.stdout
        assert "PytestCollectionWarning" not in result.stdout
