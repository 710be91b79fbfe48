"""Lower bounds on SOC testing time (used in Table 1 of the paper).

Two effects bound the testing time from below:

* **Bottleneck bound** -- no schedule can finish before the slowest core
  finishes, even if that core gets as many TAM wires as it can use:
  ``max_i T_i(min(W, W_max))``.
* **Area bound** -- every core test occupies at least ``A_i = min_w w*T_i(w)``
  TAM wire-cycles, and only ``W`` wires exist, so the schedule length is at
  least ``ceil(sum_i A_i / W)``.

The paper's lower bound is the maximum of the two.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.core.rectangles import RectangleSet, resolve_rectangle_sets, soc_plan
from repro.soc.soc import Soc
from repro.wrapper.pareto import DEFAULT_MAX_WIDTH


def _rectangles(
    soc: Soc,
    max_core_width: int,
    rectangle_sets: Optional[Dict[str, RectangleSet]],
) -> Dict[str, RectangleSet]:
    return resolve_rectangle_sets(soc, max_core_width, rectangle_sets)


def area_lower_bound(
    soc: Soc,
    total_width: int,
    max_core_width: int = DEFAULT_MAX_WIDTH,
    rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
) -> int:
    """``ceil(sum_i min_w w*T_i(w) / W)`` -- the TAM wire-cycle area bound."""
    if total_width <= 0:
        raise ValueError("total TAM width must be positive")
    sets = _rectangles(soc, max_core_width, rectangle_sets)
    total_area = sum(sets[core.name].min_area for core in soc.cores)
    return math.ceil(total_area / total_width)


def bottleneck_lower_bound(
    soc: Soc,
    total_width: int,
    max_core_width: int = DEFAULT_MAX_WIDTH,
    rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
) -> int:
    """``max_i T_i(min(W, W_max))`` -- the slowest-core bound."""
    if total_width <= 0:
        raise ValueError("total TAM width must be positive")
    sets = _rectangles(soc, max_core_width, rectangle_sets)
    return _bottleneck(soc, sets, min(total_width, max_core_width))


def _bottleneck(soc: Soc, sets: Dict[str, RectangleSet], cap: int) -> int:
    return max(sets[core.name].time_at(cap) for core in soc.cores)


def lower_bound(
    soc: Soc,
    total_width: int,
    max_core_width: int = DEFAULT_MAX_WIDTH,
    rectangle_sets: Optional[Dict[str, RectangleSet]] = None,
) -> int:
    """The paper's lower bound: max of the area and bottleneck bounds.

    Resolves the sets once and takes the summed smallest areas from the
    SOC's :class:`~repro.core.rectangles.SocPlan` instead of recomputing
    every curve's ``min_area``; the result is exactly
    ``max(area_lower_bound(...), bottleneck_lower_bound(...))``.  Repeat
    calls reuse the plan only when the caller passes cached sets (say,
    ``Session.rectangle_sets``): without ``rectangle_sets`` every call
    builds fresh sets and a fresh plan.
    """
    if total_width <= 0:
        raise ValueError("total TAM width must be positive")
    sets = _rectangles(soc, max_core_width, rectangle_sets)
    area = math.ceil(soc_plan(soc, sets).min_area_total / total_width)
    return max(area, _bottleneck(soc, sets, min(total_width, max_core_width)))
