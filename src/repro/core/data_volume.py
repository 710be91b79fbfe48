"""Tester data volume reduction (Problem 3, paper Section 5).

The cost of testing an SOC depends on the testing time *and* on the tester
memory needed to hold the test data.  With a TAM of width ``W`` and an SOC
testing time of ``T(W)`` cycles, every TAM wire is driven from one tester
channel whose memory depth must cover the whole schedule, so the tester data
volume is

    ``D(W) = W * T(W)``  (bits).

``T(W)`` is a decreasing staircase, so ``D(W)`` is non-monotonic: it dips at
every Pareto-optimal width of the ``T`` curve and grows linearly in between
(Figure 9(b)).  The paper trades the two off with the normalized cost

    ``C(W) = alpha * T(W)/T_min + (1 - alpha) * D(W)/D_min``

whose minimiser ``W_e`` is the *effective* TAM width for a given
``alpha`` in [0, 1].
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.scheduler import SchedulerConfig
from repro.schedule.schedule import TestSchedule
from repro.soc.constraints import ConstraintSet
from repro.soc.soc import Soc


def tester_data_volume(schedule: TestSchedule) -> int:
    """Tester data volume (bits) implied by a schedule: width times depth."""
    return schedule.total_width * schedule.makespan


@dataclass(frozen=True)
class CostPoint:
    """Cost-function evaluation at one TAM width."""

    width: int
    testing_time: int
    data_volume: int
    cost: float


@dataclass(frozen=True)
class TamSweep:
    """Testing time and data volume as functions of the SOC TAM width."""

    soc_name: str
    widths: Tuple[int, ...]
    testing_times: Tuple[int, ...]
    data_volumes: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.widths) != len(self.testing_times):
            raise ValueError("widths and testing_times must have the same length")
        if not self.widths:
            raise ValueError("a TAM sweep needs at least one width")
        if not self.data_volumes:
            object.__setattr__(
                self,
                "data_volumes",
                tuple(w * t for w, t in zip(self.widths, self.testing_times)),
            )
        elif len(self.data_volumes) != len(self.widths):
            raise ValueError("data_volumes must match widths in length")

    # ------------------------------------------------------------------
    @property
    def min_testing_time(self) -> int:
        """``T_min`` -- the smallest testing time over the sweep."""
        return min(self.testing_times)

    @property
    def min_data_volume(self) -> int:
        """``D_min`` -- the smallest data volume over the sweep."""
        return min(self.data_volumes)

    @property
    def width_of_min_time(self) -> int:
        """The smallest width achieving ``T_min``."""
        index = self.testing_times.index(self.min_testing_time)
        return self.widths[index]

    @property
    def width_of_min_volume(self) -> int:
        """The smallest width achieving ``D_min``."""
        index = self.data_volumes.index(self.min_data_volume)
        return self.widths[index]

    def testing_time_at(self, width: int) -> int:
        """Testing time at a swept width."""
        return self.testing_times[self.widths.index(width)]

    def data_volume_at(self, width: int) -> int:
        """Data volume at a swept width."""
        return self.data_volumes[self.widths.index(width)]

    # ------------------------------------------------------------------
    def cost_at(self, width: int, alpha: float) -> float:
        """Normalized cost ``C`` at one width for trade-off parameter ``alpha``."""
        _check_alpha(alpha)
        time_term = self.testing_time_at(width) / self.min_testing_time
        volume_term = self.data_volume_at(width) / self.min_data_volume
        return alpha * time_term + (1.0 - alpha) * volume_term

    def cost_curve(self, alpha: float) -> List[CostPoint]:
        """The full ``C(W)`` curve for one ``alpha`` (Figure 9(c)/(d))."""
        _check_alpha(alpha)
        return [
            CostPoint(
                width=width,
                testing_time=self.testing_time_at(width),
                data_volume=self.data_volume_at(width),
                cost=self.cost_at(width, alpha),
            )
            for width in self.widths
        ]

    def effective_width(self, alpha: float) -> CostPoint:
        """The width minimising ``C`` for this ``alpha`` (ties: narrowest wins)."""
        curve = self.cost_curve(alpha)
        return min(curve, key=lambda point: (point.cost, point.width))

    def pareto_widths(self) -> List[int]:
        """Widths at which the testing time strictly improves (SOC-level staircase)."""
        result = []
        best: Optional[int] = None
        for width, time in zip(self.widths, self.testing_times):
            if best is None or time < best:
                result.append(width)
                best = time
        return result


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def normalize_sweep_widths(widths: Sequence[int], monotone: bool = True) -> List[int]:
    """Validate and normalise the width list of a TAM sweep.

    Shared by the serial sweep below and the engine-backed
    :func:`repro.engine.api.parallel_tam_sweep` so the two stay
    bit-compatible.
    """
    if not widths:
        raise ValueError("at least one TAM width is required")
    for width in widths:
        if isinstance(width, bool) or not hasattr(width, "__index__"):
            raise ValueError(f"TAM widths must be integers, got {width!r}")
    ordered = [operator.index(width) for width in widths]
    if monotone and ordered != sorted(ordered):
        raise ValueError("monotone sweeps require widths in increasing order")
    return ordered


def build_tam_sweep(
    soc_name: str,
    widths: Sequence[int],
    makespans: Sequence[int],
    monotone: bool = True,
) -> TamSweep:
    """Assemble a :class:`TamSweep` from per-width makespans.

    With ``monotone=True`` the testing-time curve is clamped to its running
    minimum over increasing widths (the Figure 9(a) staircase; see
    :func:`sweep_tam_widths`).
    """
    times: List[int] = []
    for makespan in makespans:
        if monotone and times:
            makespan = min(makespan, times[-1])
        times.append(makespan)
    return TamSweep(
        soc_name=soc_name,
        widths=tuple(widths),
        testing_times=tuple(times),
    )


def sweep_tam_widths(
    soc: Soc,
    widths: Sequence[int],
    constraints: Optional[ConstraintSet] = None,
    config: Optional[SchedulerConfig] = None,
    scheduler: Optional[Callable[..., TestSchedule]] = None,
    monotone: bool = True,
) -> TamSweep:
    """Schedule the SOC at every width in ``widths`` and collect T and D.

    By default each width is solved with the paper scheduler through the
    process-wide solver session (:mod:`repro.solvers`), so repeated sweeps
    share Pareto rectangle sets.  ``scheduler`` may be used to swap in a
    different scheduling function (e.g. a baseline); it must accept the same
    signature as :func:`repro.core.scheduler.run_paper_scheduler`.

    With ``monotone=True`` (the default) the testing-time curve is clamped to
    its running minimum over increasing widths: an SOC given ``W`` TAM wires
    can always ignore some of them, so a wider TAM is never allowed to look
    slower just because the packing heuristic had an unlucky run.  This is
    the staircase the paper plots in Figure 9(a).  Pass ``monotone=False`` to
    see the raw heuristic output.
    """
    ordered = normalize_sweep_widths(widths, monotone)
    if scheduler is None:
        # Imported here: repro.solvers depends on this module's types.
        from repro.solvers.request import ScheduleRequest
        from repro.solvers.session import get_default_session

        session = get_default_session()
        makespans = [
            session.solve(
                ScheduleRequest(
                    soc=soc,
                    total_width=width,
                    config=config or SchedulerConfig(),
                    constraints=constraints,
                )
            ).makespan
            for width in ordered
        ]
    else:
        makespans = [
            scheduler(soc, width, constraints=constraints, config=config).makespan
            for width in ordered
        ]
    return build_tam_sweep(soc.name, ordered, makespans, monotone)


def cost_curve(sweep: TamSweep, alpha: float) -> List[CostPoint]:
    """Convenience wrapper around :meth:`TamSweep.cost_curve`."""
    return sweep.cost_curve(alpha)


def effective_width(sweep: TamSweep, alpha: float) -> CostPoint:
    """Convenience wrapper around :meth:`TamSweep.effective_width`."""
    return sweep.effective_width(alpha)
