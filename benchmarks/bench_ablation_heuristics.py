"""Ablations A1-A3 -- the scheduler's heuristic knobs.

A1: the preferred-width percentage ``q`` and the ``delta`` bump heuristic
    (paper subroutine ``Initialize``, Figure 5) -- the paper's p34392
    bottleneck-core anecdote is the motivating example.
A2: the idle-insertion slack (the paper found 3 wires best for its SOCs).
A3: the preemption limit (0 / 1 / 2 / 4) versus the si+so resume penalty.
"""

from __future__ import annotations


from conftest import write_result
from repro.analysis.reporting import format_table
from repro.core.grid_sweep import run_grid_sweep
from repro.core.lower_bounds import lower_bound
from repro.core.scheduler import SchedulerConfig, run_paper_scheduler
from repro.soc.benchmarks import d695, p34392
from repro.soc.constraints import ConstraintSet


def test_ablation_percent_and_delta(benchmark, results_dir):
    """A1: sweep q with delta 0 vs 4 on d695 (W=32) and p34392 (W=28)."""

    cases = ((d695(), 32), (p34392(), 28))

    def run():
        rows = []
        for soc, width in cases:
            for percent in (1, 5, 10, 25, 40, 60):
                for delta in (0, 4):
                    config = SchedulerConfig(percent=percent, delta=delta)
                    makespan = run_paper_scheduler(soc, width, config=config).makespan
                    rows.append((soc.name, width, percent, delta, makespan))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(("SOC", "W", "percent q", "delta", "testing time"), rows)
    write_result(results_dir, "ablation_percent_delta.txt", text)

    # The knobs matter: for each SOC the spread across configurations is real.
    for soc, width in cases:
        times = [r[4] for r in rows if r[0] == soc.name]
        assert max(times) > min(times)
        assert min(times) >= lower_bound(soc, width)


def test_ablation_insertion_slack(benchmark, results_dir):
    """A2: the idle-insertion slack (0 disables squeezing, 3 is the paper's pick)."""

    soc = d695()
    widths = (16, 32, 48, 64)

    def run():
        rows = []
        for width in widths:
            entries = [width, lower_bound(soc, width)]
            for slack in (0, 1, 3, 6, 10):
                best = run_grid_sweep(
                    soc, width, percents=(1, 10, 25, 60), deltas=(0, 2), slacks=(slack,)
                ).schedule
                entries.append(best.makespan)
            rows.append(tuple(entries))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ("W", "LB", "slack=0", "slack=1", "slack=3", "slack=6", "slack=10"), rows
    )
    write_result(results_dir, "ablation_insertion_slack.txt", text)

    for row in rows:
        assert min(row[2:]) >= row[1]


def test_ablation_preemption_limit(benchmark, results_dir):
    """A3: preemption limits 0/1/2/4 across the Table 1 widths of d695."""

    soc = d695()
    widths = (16, 32, 48, 64)
    grid = dict(percents=(1, 10, 25, 60), deltas=(0, 2), slacks=(0, 3))

    def run():
        rows = []
        for width in widths:
            entries = [width]
            for limit in (0, 1, 2, 4):
                constraints = ConstraintSet.for_soc(soc, default_preemptions=limit)
                best = run_grid_sweep(soc, width, constraints=constraints, **grid).schedule
                best.validate(soc, constraints)
                entries.append(best.makespan)
            rows.append(tuple(entries))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(("W", "limit=0", "limit=1", "limit=2", "limit=4"), rows)
    write_result(results_dir, "ablation_preemption_limit.txt", text)

    # Preemption is a trade-off (the resume penalty can win or lose), but it
    # must never be catastrophic -- the paper observes the same.
    for row in rows:
        non_preemptive = row[1]
        for value in row[2:]:
            assert value <= 1.1 * non_preemptive
