"""Experiment B1 -- flexible-width rectangle packing vs. baseline architectures.

Compares the paper's flexible-width packer against (i) the strongest
fixed-width TAM architecture with up to three buses (the architecture style
of the authors' earlier work [12, 13]) and (ii) classic level-oriented shelf
packing [8], on d695 and p22810 across the Table 1 TAM widths.
"""

from __future__ import annotations

import pytest

from conftest import write_result
from repro.analysis.reporting import format_table
from repro.baselines.fixed_width import run_fixed_width
from repro.baselines.shelf import run_shelf
from repro.core.grid_sweep import run_grid_sweep
from repro.core.lower_bounds import lower_bound
from repro.soc.benchmarks import get_benchmark

WIDTHS = (16, 32, 48, 64)


@pytest.mark.parametrize("soc_name", ["d695", "p22810"])
def test_flexible_vs_baselines(benchmark, results_dir, soc_name):
    soc = get_benchmark(soc_name)

    def run():
        rows = []
        for width in WIDTHS:
            bound = lower_bound(soc, width)
            flexible = run_grid_sweep(soc, width).schedule.makespan
            fixed = run_fixed_width(soc, width, max_buses=3).makespan
            shelf = run_shelf(soc, width).makespan
            rows.append((width, bound, flexible, fixed, shelf, fixed / flexible, shelf / flexible))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    text = format_table(
        ("W", "LB", "flexible", "fixed-width", "shelf", "fixed/flex", "shelf/flex"),
        rows,
    )
    write_result(results_dir, f"baselines_{soc_name}.txt", text)

    for width, bound, flexible, fixed, shelf, _, _ in rows:
        assert flexible >= bound
        # Shelf packing never beats the flexible packer.
        assert flexible <= shelf
    # At the widest TAM the flexible packer strictly beats the fixed-width
    # architecture (the paper's headline architectural claim); at narrow TAMs
    # it stays within a few percent of it.
    final = rows[-1]
    assert final[2] < final[3]
    first = rows[0]
    assert first[2] <= 1.06 * first[3]
