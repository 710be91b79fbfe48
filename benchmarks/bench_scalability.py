"""Extension experiments: scalability and multisite batch testing.

The paper claims the rectangle-packing algorithm "is scalable for large
industrial SOCs".  This module quantifies that with generated SOC families
of growing size, and evaluates the multisite-testing extension (the paper's
stated motivation for trading TAM width against tester data volume).
"""

from __future__ import annotations

import time

from conftest import write_result
from repro.analysis.multisite import TesterModel, best_multisite_width, evaluate_multisite
from repro.analysis.reporting import format_table
from repro.core.data_volume import sweep_tam_widths
from repro.core.lower_bounds import lower_bound
from repro.core.scheduler import run_paper_scheduler
from repro.soc.benchmarks import d695
from repro.soc.generator import GeneratorProfile, generate_soc


def test_scalability_with_core_count(benchmark, results_dir):
    """Scheduler runtime and quality as the number of cores grows."""

    sizes = (10, 20, 40, 80)

    def run():
        rows = []
        for size in sizes:
            profile = GeneratorProfile(
                min_cores=size, max_cores=size, max_scan_cells=3000, max_patterns=200
            )
            soc = generate_soc(seed=size, profile=profile)
            start = time.perf_counter()
            schedule = run_paper_scheduler(soc, 64)
            elapsed = time.perf_counter() - start
            bound = lower_bound(soc, 64)
            rows.append(
                (size, bound, schedule.makespan, round(schedule.makespan / bound, 3),
                 round(elapsed * 1000, 1))
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(("cores", "LB", "makespan", "ratio", "runtime (ms)"), rows)
    write_result(results_dir, "scalability_core_count.txt", text)

    for _, bound, makespan, _, runtime_ms in rows:
        assert makespan >= bound
        assert runtime_ms < 5000.0  # the paper's < 5 s claim, with huge margin
    # Quality does not degrade badly with size.
    assert rows[-1][3] < 1.4


def test_multisite_batch_extension(benchmark, results_dir):
    """Multisite batch testing: the narrow-TAM motivation quantified on d695."""

    soc = d695()
    widths = (8, 12, 16, 24, 32, 48, 64)
    tester = TesterModel(channels=128, buffer_depth=30_000, reload_cycles=200_000)
    batch = 2_000

    def run():
        sweep = sweep_tam_widths(soc, widths)
        return sweep, evaluate_multisite(sweep, tester, batch)

    sweep, points = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        (p.width, p.testing_time, p.sites, p.buffer_reloads, p.insertions, p.batch_time)
        for p in points
    ]
    best = best_multisite_width(sweep, tester, batch)
    text = "\n".join(
        [
            format_table(
                ("W", "T(W)", "sites", "reloads", "insertions", "batch cycles"), rows
            ),
            "",
            f"best single-device width: {sweep.width_of_min_time}; "
            f"best batch width: {best.width} ({best.sites} sites)",
        ]
    )
    write_result(results_dir, "multisite_batch.txt", text)

    # The batch-optimal TAM is narrower than the single-device optimum -- the
    # paper's motivating observation for Problem 3.
    assert best.width < sweep.width_of_min_time
