"""Experiment E3 -- Table 1: wrapper/TAM co-optimization and test scheduling.

For each benchmark SOC and each TAM width the paper reports, regenerate the
lower bound and the non-preemptive, preemptive, and preemptive +
power-constrained testing times (best over the default heuristic grid),
plus one more non-preemptive column under the paper's own grid.
"""

from __future__ import annotations

import pytest

from conftest import write_result
from repro.analysis.experiments import TABLE1_WIDTHS, run_table1
from repro.analysis.reporting import table1_to_text
from repro.soc.benchmarks import get_benchmark
from repro.solvers import ScheduleRequest, get_default_session

# Published Table 1 values, used only for the reproduction report.  d695's
# data is essentially real; the Philips SOCs are synthetic stand-ins,
# expected to match in shape, not value.
PAPER_TABLE1 = {
    ("d695", 16): (41232, 43410, 43423, 47574),
    ("d695", 32): (20616, 22229, 21757, 29039),
    ("d695", 48): (13744, 15698, 15499, 28441),
    ("d695", 64): (10308, 11285, 11354, 20004),
    ("p22810", 16): (421473, 466383, 459951, 527573),
    ("p22810", 32): (210737, 243779, 243978, 277151),
    ("p22810", 48): (140491, 164420, 162554, 213845),
    ("p22810", 64): (105369, 140222, 134732, 176076),
    ("p34392", 16): (936882, 1071043, 1082065, 1180187),
    ("p34392", 24): (624588, 728986, 702322, 1075971),
    ("p34392", 28): (544579, 617018, 615126, 1075242),
    ("p34392", 32): (544579, 544579, 544579, 1075242),
    ("p93791", 16): (1749388, 1860752, 1860752, 1966092),
    ("p93791", 32): (874694, 929311, 929311, 1247221),
    ("p93791", 48): (583130, 637717, 643605, 656214),
    ("p93791", 64): (437347, 503661, 492095, 631840),
}


# The grid the paper tabulates its best result over, as ``run_table1``'s
# docstring states it: integer q 1..10, delta 0..4, slack fixed at 3.
PAPER_GRID = {"percents": tuple(range(1, 11)), "deltas": tuple(range(5)), "slacks": (3,)}


def paper_grid_non_preemptive(soc, width):
    """Best non-preemptive makespan over :data:`PAPER_GRID`."""
    request = ScheduleRequest(soc=soc, total_width=width, solver="best", options=PAPER_GRID)
    return get_default_session().solve(request).makespan


def _render(soc_name, rows, paper_grid):
    lines = [
        table1_to_text(rows),
        "",
        "non-preemptive under the paper grid (q 1..10, delta 0..4, slack 3):",
    ]
    for row in rows:
        lines.append(f"  W={row.width}: NP={paper_grid[row.width]}")
    lines += ["", "paper reference (LB / NP / P / P+power):"]
    for row in rows:
        paper = PAPER_TABLE1.get((soc_name, row.width))
        if paper:
            lines.append(
                f"  W={row.width}: paper LB={paper[0]} NP={paper[1]} "
                f"P={paper[2]} PW={paper[3]}"
            )
    return "\n".join(lines)


@pytest.mark.parametrize("soc_name", ["d695", "p22810", "p34392", "p93791"])
def test_table1(benchmark, results_dir, soc_name):
    """Regenerate the Table 1 rows for one SOC (single benchmark round)."""
    soc = get_benchmark(soc_name)
    widths = TABLE1_WIDTHS[soc_name]

    rows = benchmark.pedantic(
        lambda: run_table1(soc, widths=widths), rounds=1, iterations=1
    )

    paper_grid = {width: paper_grid_non_preemptive(soc, width) for width in widths}
    write_result(
        results_dir, f"table1_{soc_name}.txt", _render(soc_name, rows, paper_grid)
    )

    for row in rows:
        # The paper grid is not a subset of the default grid, so the two
        # columns share only the lower bound.
        assert paper_grid[row.width] >= row.lower_bound
        assert row.non_preemptive >= row.lower_bound
        assert row.preemptive >= row.lower_bound
        assert row.power_constrained >= row.lower_bound
        # Same shape as the paper: the heuristic lands within 25 % of the
        # lower bound (the paper achieves 0-33 % depending on SOC and width).
        assert row.non_preemptive <= 1.25 * row.lower_bound
    # Testing time scales roughly inversely with TAM width.
    assert rows[-1].non_preemptive < rows[0].non_preemptive
