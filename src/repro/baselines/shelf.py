"""Level-oriented (shelf) rectangle packing baseline [8].

Coffman et al.'s level-oriented algorithms pack rectangles into horizontal
levels; here the bin is rotated the same way the paper draws it (height =
TAM wires, unbounded time axis), so a *shelf* is a time interval during which
a fixed group of cores is tested side by side:

1. pick one rectangle per core (its testing time at the preferred TAM width,
   computed exactly as the main scheduler does);
2. sort the rectangles by decreasing testing time;
3. fill shelves next-fit: add rectangles to the current shelf while their
   total TAM width fits in ``W``; when one does not fit, close the shelf
   (its duration is the longest test on it) and open a new one.

The resulting makespan is the sum of shelf durations.  The algorithm is the
classic comparator for the paper's flexible packer: it never lets a test
span shelf boundaries, so TAM wires idle whenever tests on a shelf have
unequal lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.rectangles import RectangleSet, resolve_rectangle_sets
from repro.core.scheduler import SchedulerConfig
from repro.schedule.schedule import ScheduleSegment, TestSchedule
from repro.soc.soc import Soc


@dataclass
class _Shelf:
    start: int
    used_width: int = 0
    duration: int = 0
    segments: Optional[List[ScheduleSegment]] = None

    def __post_init__(self) -> None:
        if self.segments is None:
            self.segments = []


def run_shelf(
    soc: Soc,
    total_width: int,
    config: Optional[SchedulerConfig] = None,
    rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
) -> TestSchedule:
    """Pack the SOC with next-fit-decreasing shelf packing.

    The implementation behind the ``"shelf"`` solver of the registry
    (:mod:`repro.solvers`).  ``config`` supplies the preferred-width
    parameters so the comparison against the flexible packer is
    apples-to-apples; ``rectangle_sets`` may supply pre-built Pareto sets
    (built with ``max_width == config.max_core_width``).
    """
    if total_width <= 0:
        raise ValueError("total TAM width must be positive")
    config = config or SchedulerConfig()
    sets = resolve_rectangle_sets(soc, config.max_core_width, rectangle_sets)
    width_cap = min(config.max_core_width, total_width)

    rectangles = []
    for core in soc.cores:
        rect = sets[core.name]
        width = rect.preferred_width(config.percent, config.delta, width_cap)
        rectangles.append((core.name, width, rect.time_at(width)))
    rectangles.sort(key=lambda item: item[2], reverse=True)

    shelves: List[_Shelf] = [_Shelf(start=0)]
    for name, width, time in rectangles:
        shelf = shelves[-1]
        if shelf.used_width + width > total_width and shelf.used_width > 0:
            new_start = shelf.start + shelf.duration
            shelf = _Shelf(start=new_start)
            shelves.append(shelf)
        assert shelf.segments is not None
        shelf.segments.append(
            ScheduleSegment(core=name, start=shelf.start, end=shelf.start + time, width=width)
        )
        shelf.used_width += width
        shelf.duration = max(shelf.duration, time)

    segments: List[ScheduleSegment] = []
    for shelf in shelves:
        assert shelf.segments is not None
        segments.extend(shelf.segments)
    return TestSchedule(
        soc_name=soc.name, total_width=total_width, segments=tuple(segments)
    )
