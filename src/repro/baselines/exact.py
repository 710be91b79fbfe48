"""Exhaustive reference packer for tiny SOCs.

Used by the test-suite (and the ablation benchmarks) to sanity-check the
heuristic scheduler: for SOCs with a handful of cores it enumerates every
combination of Pareto-optimal width per core and every core ordering, placing
each core at the earliest time at which its wires are available
(left-justified placement).  The best makespan over all combinations is a
strong reference point: it is optimal whenever some optimal schedule is a
left-justified permutation schedule, which holds for the small instances the
tests construct.

The search space is ``prod_i |R_i| * n!`` so the function refuses to run on
more than ``max_cores`` cores.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Dict, List, Optional, Tuple

from repro.core.rectangles import RectangleSet, resolve_rectangle_sets
from repro.core.scheduler import SchedulerConfig
from repro.schedule.schedule import ScheduleSegment, TestSchedule
from repro.soc.constraints import ConstraintSet
from repro.soc.soc import Soc


def _earliest_start(
    placed: List[Tuple[int, int, int]], width: int, duration: int, total_width: int
) -> int:
    """Earliest left-justified start time for a (width, duration) rectangle.

    ``placed`` holds (start, end, width) of already-placed rectangles.
    """
    candidate_times = sorted({0} | {end for _, end, _ in placed})
    for start in candidate_times:
        end = start + duration
        # Check capacity at every breakpoint inside [start, end).
        breakpoints = sorted(
            {start}
            | {s for s, _, _ in placed if start < s < end}
        )
        feasible = True
        for point in breakpoints:
            used = sum(w for s, e, w in placed if s <= point < e)
            if used + width > total_width:
                feasible = False
                break
        if feasible:
            return start
    raise AssertionError("a start time always exists after the last placed rectangle")


def run_exhaustive(
    soc: Soc,
    total_width: int,
    constraints: Optional[ConstraintSet] = None,
    config: Optional[SchedulerConfig] = None,
    max_cores: int = 6,
    max_widths_per_core: int = 8,
    rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
) -> TestSchedule:
    """Best left-justified permutation schedule over all Pareto width choices.

    The implementation behind the ``"exhaustive"`` solver of the registry
    (:mod:`repro.solvers`).  Only non-preemptive, unconstrained scheduling is
    supported (Problem 1); passing a non-trivial ``constraints`` raises
    ``ValueError``.  ``rectangle_sets`` may supply pre-built Pareto sets
    (built with ``max_width == min(config.max_core_width, total_width)``).
    """
    if constraints is not None and (
        constraints.precedence or constraints.concurrency or constraints.power_max
    ):
        raise ValueError("the exhaustive reference packer only handles Problem 1")
    if len(soc.cores) > max_cores:
        raise ValueError(
            f"exhaustive search limited to {max_cores} cores, SOC has {len(soc.cores)}"
        )
    config = config or SchedulerConfig()
    sets = resolve_rectangle_sets(
        soc, min(config.max_core_width, total_width), rectangle_sets
    )

    names = [core.name for core in soc.cores]
    choices: Dict[str, List[Tuple[int, int]]] = {}
    for name in names:
        points = [(p.width, p.time) for p in sets[name].points if p.width <= total_width]
        if not points:
            points = [(1, sets[name].time_at(1))]
        # Keep the widest (fastest) options first and cap the number of choices.
        points = sorted(points, key=lambda wt: wt[0], reverse=True)[:max_widths_per_core]
        choices[name] = points

    best_segments: Optional[List[ScheduleSegment]] = None
    best_makespan: Optional[int] = None
    for widths in product(*(choices[name] for name in names)):
        for order in permutations(range(len(names))):
            placed: List[Tuple[int, int, int]] = []
            segments: List[ScheduleSegment] = []
            for index in order:
                width, duration = widths[index]
                start = _earliest_start(placed, width, duration, total_width)
                placed.append((start, start + duration, width))
                segments.append(
                    ScheduleSegment(
                        core=names[index], start=start, end=start + duration, width=width
                    )
                )
            makespan = max(segment.end for segment in segments)
            if best_makespan is None or makespan < best_makespan:
                best_makespan = makespan
                best_segments = segments
    assert best_segments is not None
    return TestSchedule(
        soc_name=soc.name, total_width=total_width, segments=tuple(best_segments)
    )
