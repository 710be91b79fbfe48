"""Experiment E9 -- sweep engine: serial vs. parallel wall-clock time.

Runs the Table 1 experiment grid (width x scheduler mode x percent/delta/
slack) for d695 and p93791 twice -- once serially, once across a worker
pool -- and reports the wall-clock speedup.  The engine guarantees the two
runs produce identical rows, which this benchmark also asserts.

By default the speedup is report-only: on shared CI runners (or grids this
small) pool start-up and timing noise make a hard wall-clock assertion
flaky.  Set ``SWEEP_BENCH_STRICT=1`` on a quiet machine with >= 4 cores to
enforce the >= 2x target on the p93791 grid.

Run explicitly (benchmark files are not collected by the default suite):

    PYTHONPATH=src python -m pytest benchmarks/bench_sweep_engine.py -s
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import write_result
from repro.analysis.experiments import run_table1
from repro.engine import EngineContext, prime_context_caches
from repro.soc.benchmarks import get_benchmark
from repro.wrapper.pareto import DEFAULT_MAX_WIDTH

WORKERS = min(4, os.cpu_count() or 1)
STRICT = os.environ.get("SWEEP_BENCH_STRICT") == "1"

# One moderate grid per SOC: 4 widths x 3 modes x (4 * 2 * 2) parameters
# = 192 independent scheduling jobs.
GRID = dict(
    widths=(16, 32, 48, 64),
    percents=(1, 5, 10, 25),
    deltas=(0, 2),
    slacks=(0, 3),
)


def _timed(soc, workers):
    started = time.perf_counter()
    rows = run_table1(soc, workers=workers, **GRID)
    return rows, time.perf_counter() - started


@pytest.mark.parametrize("soc_name", ["d695", "p93791"])
def test_sweep_engine_speedup(results_dir, soc_name):
    soc = get_benchmark(soc_name)
    # Warm the parent-process Pareto caches so neither timed run pays the
    # one-off curve construction (fork workers inherit these; the pool
    # spin-up itself is part of the parallel cost being measured).
    prime_context_caches(
        EngineContext.for_soc(soc), {(soc.name, DEFAULT_MAX_WIDTH)}
    )

    serial_rows, serial_time = _timed(soc, workers=0)
    parallel_rows, parallel_time = _timed(soc, workers=WORKERS)

    assert parallel_rows == serial_rows, "parallel sweep must be bit-identical"

    speedup = serial_time / parallel_time if parallel_time > 0 else float("inf")
    grid_jobs = 4 * 3 * len(GRID["percents"]) * len(GRID["deltas"]) * len(GRID["slacks"])
    report = "\n".join(
        [
            f"SOC                 : {soc_name}",
            f"jobs in grid        : {grid_jobs}",
            f"workers             : {WORKERS} (of {os.cpu_count()} cpus)",
            f"serial wall time    : {serial_time:.3f} s",
            f"parallel wall time  : {parallel_time:.3f} s",
            f"speedup             : {speedup:.2f}x",
            "rows identical      : yes",
        ]
    )
    write_result(results_dir, f"sweep_engine_{soc_name}.txt", report)

    # Pool dispatch overhead only pays off with real parallel hardware, and
    # the d695 grid is too small (~0.2 s serial) to amortise it at all --
    # enforce the target only when explicitly requested, and only on the
    # p93791 grid, whose per-job cost dominates the pool overhead.
    if STRICT and soc_name == "p93791" and (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, f"expected >= 2x speedup on >= 4 cores, got {speedup:.2f}x"
