"""Run a parameter sweep on the parallel sweep engine.

The sweep engine (``repro.engine``) executes lists of independent jobs
either serially or across a ``multiprocessing`` worker pool -- with results
guaranteed identical for every worker count.  This example runs the Table 1
grid for d695 both ways, checks the rows match, and shows the raw engine API
(``best``-solver jobs, their winning grid points, CSV export).
"""

import os
import time

from repro import run_table1, table1_to_text
from repro.engine import EngineContext, ScheduleJob, run_jobs
from repro.soc.benchmarks import d695

WORKERS = min(4, os.cpu_count() or 1)


def main() -> None:
    soc = d695()

    # ------------------------------------------------------------------
    # High level: the Table 1 driver runs on the sweep engine; 'workers'
    # selects serial (0) or pool execution.
    # ------------------------------------------------------------------
    grid = dict(widths=(16, 32), percents=(1, 5, 10), deltas=(0, 2), slacks=(0, 3))

    started = time.perf_counter()
    serial_rows = run_table1(soc, workers=0, **grid)
    serial_time = time.perf_counter() - started

    started = time.perf_counter()
    parallel_rows = run_table1(soc, workers=WORKERS, **grid)
    parallel_time = time.perf_counter() - started

    print(f"Table 1 for {soc.name} on the sweep engine")
    print(table1_to_text(serial_rows))
    print()
    print(f"serial run        : {serial_time:.3f} s")
    print(f"{WORKERS} workers run     : {parallel_time:.3f} s")
    match = "identical" if serial_rows == parallel_rows else "DIFFERENT (bug!)"
    print(f"results           : {match}")

    # ------------------------------------------------------------------
    # Low level: one ``best``-solver job per width; each job sweeps the
    # heuristic grid and reports its winning grid point in the metadata.
    # ------------------------------------------------------------------
    heuristics = {"percents": (1, 5, 10), "deltas": (0, 2), "slacks": (0, 3)}
    context = EngineContext.for_soc(soc)
    jobs = [
        ScheduleJob(
            index=index,
            soc=soc.name,
            width=width,
            solver="best",
            options=heuristics,
            group=(width,),
        )
        for index, width in enumerate((16, 32))
    ]
    results = run_jobs(jobs, context, workers=WORKERS)
    print()
    print(f"jobs executed     : {len(results)}")
    for result in results:
        metadata = dict(result.metadata)
        print(
            f"best at W={result.job.width:<3}: makespan {result.makespan} "
            f"(percent={metadata['winner_percent']}, delta={metadata['winner_delta']}, "
            f"{metadata['unique_runs']} of {metadata['grid_points']} grid points run)"
        )

    csv_lines = results.to_csv().splitlines()
    print(f"CSV export        : {len(csv_lines) - 1} records, header:")
    print(f"  {csv_lines[0]}")

if __name__ == "__main__":
    main()
