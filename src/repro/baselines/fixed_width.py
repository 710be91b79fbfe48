"""Fixed-width TAM baseline (the architecture style of [12] and [13]).

In a fixed-width test access architecture the total SOC TAM width ``W`` is
explicitly partitioned into ``B`` buses of widths ``w_1 + ... + w_B = W``;
every core is assigned to exactly one bus and the cores on a bus are tested
sequentially.  The SOC testing time is the largest bus load:

    ``T = max_b  sum_{i on bus b} T_i(w_b)``

The optimizer below enumerates all partitions of ``W`` into at most
``max_buses`` parts (bounded, since ``max_buses`` is small) and assigns cores
to buses with a longest-processing-time-first heuristic, keeping the best
architecture found.  The paper's point -- that such architectures waste TAM
wires compared with flexible-width rectangle packing -- is reproduced by
comparing the resulting makespan against
:func:`repro.core.scheduler.run_paper_scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.rectangles import RectangleSet, resolve_rectangle_sets
from repro.schedule.schedule import ScheduleSegment, TestSchedule
from repro.soc.soc import Soc
from repro.wrapper.pareto import DEFAULT_MAX_WIDTH


@dataclass(frozen=True)
class FixedWidthResult:
    """The best fixed-width architecture found for one SOC and total width."""

    schedule: TestSchedule
    bus_widths: Tuple[int, ...]
    assignment: Dict[str, int]

    @property
    def makespan(self) -> int:
        """SOC testing time of the fixed-width architecture."""
        return self.schedule.makespan


def _partitions(total: int, parts: int, minimum: int = 1) -> List[Tuple[int, ...]]:
    """All non-increasing partitions of ``total`` into exactly ``parts`` parts."""
    if parts == 1:
        return [(total,)] if total >= minimum else []
    result = []
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _partitions(total - first, parts - 1, first):
            result.append((first,) + rest)
    return result


def _assign_cores(
    core_times: Dict[str, Dict[int, int]], bus_widths: Sequence[int]
) -> Tuple[Dict[str, int], List[int]]:
    """LPT assignment of cores to buses; returns (assignment, bus loads)."""
    loads = [0] * len(bus_widths)
    assignment: Dict[str, int] = {}
    # Longest test first (using each core's time on the widest bus as the key).
    widest = max(bus_widths)
    order = sorted(
        core_times, key=lambda name: core_times[name][widest], reverse=True
    )
    for name in order:
        best_bus = min(
            range(len(bus_widths)),
            key=lambda b: (loads[b] + core_times[name][bus_widths[b]], b),
        )
        assignment[name] = best_bus
        loads[best_bus] += core_times[name][bus_widths[best_bus]]
    return assignment, loads


def run_fixed_width(
    soc: Soc,
    total_width: int,
    max_buses: int = 3,
    max_core_width: int = DEFAULT_MAX_WIDTH,
    rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
) -> FixedWidthResult:
    """Best fixed-width TAM architecture with at most ``max_buses`` buses.

    The implementation behind the ``"fixed-width"`` solver of the registry
    (:mod:`repro.solvers`).  Precedence and concurrency constraints are
    trivially satisfied because cores on one bus run sequentially, but power
    constraints are not modelled by this baseline.  ``rectangle_sets`` may
    supply pre-built Pareto sets (built with ``max_width == max_core_width``).
    """
    if total_width <= 0:
        raise ValueError("total TAM width must be positive")
    sets = resolve_rectangle_sets(soc, max_core_width, rectangle_sets)
    cap = min(total_width, max_core_width)
    # Precompute each core's testing time at every candidate bus width.
    candidate_widths = sorted({w for b in range(1, max_buses + 1) for w in range(1, cap + 1)})
    core_times: Dict[str, Dict[int, int]] = {
        core.name: {w: sets[core.name].time_at(w) for w in candidate_widths}
        for core in soc.cores
    }

    best: Optional[FixedWidthResult] = None
    for buses in range(1, min(max_buses, total_width, len(soc.cores)) + 1):
        for widths in _partitions(min(total_width, cap * buses), buses):
            if any(w > cap for w in widths):
                continue
            assignment, loads = _assign_cores(core_times, widths)
            makespan = max(loads)
            if best is not None and makespan >= best.makespan:
                continue
            segments = []
            clocks = [0] * buses
            for name, bus in assignment.items():
                duration = core_times[name][widths[bus]]
                segments.append(
                    ScheduleSegment(
                        core=name,
                        start=clocks[bus],
                        end=clocks[bus] + duration,
                        width=widths[bus],
                    )
                )
                clocks[bus] += duration
            schedule = TestSchedule(
                soc_name=soc.name,
                total_width=total_width,
                segments=tuple(segments),
            )
            best = FixedWidthResult(
                schedule=schedule, bus_widths=widths, assignment=assignment
            )
    assert best is not None
    return best
