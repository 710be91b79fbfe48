"""Baseline TAM architectures and packers the paper compares against.

* :mod:`~repro.baselines.fixed_width` -- fixed-width TAM architectures in the
  style of the authors' earlier work [12, 13]: the SOC TAM width is
  partitioned into a small number of buses and every core is assigned to
  exactly one bus.  Shows why flexible-width (rectangle packing) TAMs use
  wires more efficiently.
* :mod:`~repro.baselines.shelf` -- classic level-oriented (shelf) rectangle
  packing [8]: a simple NFD packer over one rectangle per core.
* :mod:`~repro.baselines.exact` -- an exhaustive reference packer for tiny
  SOCs, used by the test suite to sanity-check the heuristic scheduler.
"""

from repro.baselines.fixed_width import FixedWidthResult, run_fixed_width
from repro.baselines.shelf import run_shelf
from repro.baselines.exact import run_exhaustive

__all__ = [
    "FixedWidthResult",
    "run_fixed_width",
    "run_shelf",
    "run_exhaustive",
]
