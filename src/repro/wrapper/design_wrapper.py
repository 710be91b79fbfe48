"""The ``Design_wrapper`` algorithm: per-core wrapper design at a TAM width.

Given a core and a TAM width ``w``, :func:`design_wrapper` builds ``w``
wrapper scan chains using the Best-Fit-Decreasing heuristic of [12]
(see :mod:`repro.wrapper.partition`).  The resulting testing time is

    ``T(w) = (1 + max(si, so)) * p + min(si, so)``

where ``p`` is the number of test patterns and ``si`` / ``so`` are the
longest wrapper scan-in and scan-out lengths.  Each pattern requires
``max(si, so)`` shift cycles (scan-in of the next pattern overlaps scan-out
of the previous response) plus one launch/capture cycle, and the final
response needs an extra ``min(si, so)`` cycles to flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.soc.core import Core
from repro.wrapper.partition import (
    WrapperChain,
    distribute_bidir_cells,
    distribute_input_cells,
    distribute_output_cells,
    partition_scan_chains,
)


@dataclass(frozen=True)
class WrapperDesign:
    """A completed wrapper design for one core at one TAM width."""

    core_name: str
    tam_width: int
    chains: Tuple[WrapperChain, ...]
    patterns: int

    @property
    def scan_in_length(self) -> int:
        """Longest wrapper scan-in chain (``si`` in the paper)."""
        return max(chain.scan_in_length for chain in self.chains)

    @property
    def scan_out_length(self) -> int:
        """Longest wrapper scan-out chain (``so`` in the paper)."""
        return max(chain.scan_out_length for chain in self.chains)

    @property
    def used_width(self) -> int:
        """Number of wrapper chains that actually carry cells.

        Assigning more TAM wires than this brings no benefit; this is what
        makes the testing-time curve a staircase.
        """
        return sum(1 for chain in self.chains if not chain.is_empty)

    @property
    def testing_time(self) -> int:
        """Core test application time in cycles at this wrapper design."""
        longest = max(self.scan_in_length, self.scan_out_length)
        shortest = min(self.scan_in_length, self.scan_out_length)
        return (1 + longest) * self.patterns + shortest

    @property
    def preemption_overhead(self) -> int:
        """Extra cycles incurred each time this core's test is resumed.

        A preemption forces an extra scan-out of the current state and an
        extra scan-in when the test resumes: ``si + so`` cycles (Section 4).
        """
        return self.scan_in_length + self.scan_out_length


def design_wrapper(core: Core, width: int) -> WrapperDesign:
    """Design a wrapper for ``core`` with ``width`` wrapper scan chains (BFD)."""
    if width <= 0:
        raise ValueError(f"TAM width must be positive, got {width}")
    chains = partition_scan_chains(core.scan_chains, width)
    distribute_input_cells(chains, core.inputs)
    distribute_output_cells(chains, core.outputs)
    distribute_bidir_cells(chains, core.bidirs)
    return WrapperDesign(
        core_name=core.name,
        tam_width=width,
        chains=tuple(chains),
        patterns=core.patterns,
    )


def scan_lengths(core: Core, width: int) -> Tuple[int, int]:
    """Longest wrapper scan-in and scan-out lengths for ``core`` at ``width``.

    Uses the best BFD design over *at most* ``width`` wrapper chains (a
    wrapper given ``width`` TAM wires may leave some unconnected, and the BFD
    heuristic occasionally produces a slightly better partition with fewer
    chains).  This guarantees the testing time is non-increasing in the TAM
    width, which is what the Pareto analysis of the paper assumes.

    Served by the single-pass wrapper-curve kernel
    (:mod:`repro.wrapper.curve`); :func:`design_wrapper` above remains the
    executable reference the kernel is pinned against.
    """
    from repro.wrapper.curve import wrapper_curve

    return wrapper_curve(core, width).scan_lengths(width)


def testing_time(core: Core, width: int) -> int:
    """Core test application time (cycles) when given ``width`` TAM wires.

    This is the time of the best wrapper design using at most ``width``
    wrapper chains, so it is non-increasing in ``width``.  Served by the
    wrapper-curve kernel.
    """
    from repro.wrapper.curve import wrapper_curve

    return wrapper_curve(core, width).time(width)


def preemption_overhead(core: Core, width: int) -> int:
    """Cycles added to the core's test each time it is preempted and resumed."""
    from repro.wrapper.curve import wrapper_curve

    return wrapper_curve(core, width).preemption_overhead(width)
