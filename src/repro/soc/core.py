"""The :class:`Core` data model.

A core is described by the test-set parameters the paper uses (Section 3):
the number of functional inputs, outputs and bidirectional pins, the number
of test patterns, and the lengths of its internal scan chains.  Scan chain
lengths are *fixed* (the paper explicitly assumes this, unlike Aerts &
Marinissen [1]).

Two optional attributes extend the model for constraint-driven scheduling
(Section 4):

* ``power``      -- power dissipated while the core's test runs.  When not
  given it defaults to the number of test-data bits per pattern, which is the
  "hypothetical power value" the paper assigns in its experiments.
* ``bist_resource`` -- name of an on-chip BIST engine shared with other
  cores; two cores that share an engine must not be tested concurrently
  (the "BIST-scan test conflict" of Figure 7).
* ``parent``     -- name of the hierarchical parent core, if any.  A parent
  core cannot be tested at the same time as its children because the child
  wrappers must be in Extest mode while the parent is in Intest mode.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class Core:
    """An embedded core and its test-set parameters.

    Parameters
    ----------
    name:
        Unique core name within the SOC (e.g. ``"s38417"`` or ``"Core 6"``).
    inputs:
        Number of functional input terminals (excluding bidirectional pins).
    outputs:
        Number of functional output terminals (excluding bidirectional pins).
    bidirs:
        Number of bidirectional terminals.  A bidirectional terminal needs a
        wrapper cell on both the scan-in and the scan-out path.
    patterns:
        Number of test patterns in the core's test set.
    scan_chains:
        Lengths of the core's internal scan chains.  An empty tuple means the
        core is combinational (no internal state accessed through scan).
    power:
        Power dissipated while this core's test is applied.  ``None`` means
        "use the default model": test-data bits per pattern
        (:attr:`test_bits_per_pattern`).
    bist_resource:
        Optional name of a shared BIST engine.  Cores that name the same
        engine cannot be tested concurrently.
    parent:
        Optional name of the hierarchical parent core.
    """

    name: str
    inputs: int
    outputs: int
    bidirs: int = 0
    patterns: int = 1
    scan_chains: Tuple[int, ...] = field(default_factory=tuple)
    power: Optional[float] = None
    bist_resource: Optional[str] = None
    parent: Optional[str] = None

    def __post_init__(self) -> None:
        # ``operator.index`` takes ints and int-likes and rejects floats and
        # strings, which would otherwise truncate or fail deep in the kernel.
        object.__setattr__(
            self, "scan_chains", tuple(map(operator.index, self.scan_chains))
        )
        if not self.name:
            raise ValueError("core name must be a non-empty string")
        for attr in ("inputs", "outputs", "bidirs", "patterns"):
            value = operator.index(getattr(self, attr))
            object.__setattr__(self, attr, value)
            if value < 0:
                raise ValueError(f"{attr} must be non-negative, got {value}")
        if self.patterns == 0:
            raise ValueError("a core must have at least one test pattern")
        if any(length <= 0 for length in self.scan_chains):
            raise ValueError("scan chain lengths must be positive")
        if self.inputs + self.outputs + self.bidirs + len(self.scan_chains) == 0:
            raise ValueError("a core must have at least one terminal or scan chain")
        if self.power is not None and self.power < 0:
            raise ValueError("power must be non-negative")

    # ------------------------------------------------------------------
    # Derived test-set quantities
    # ------------------------------------------------------------------
    @property
    def scan_cells(self) -> int:
        """Total number of internal scan cells (sum of scan chain lengths)."""
        return sum(self.scan_chains)

    @property
    def num_scan_chains(self) -> int:
        """Number of internal scan chains."""
        return len(self.scan_chains)

    @property
    def is_combinational(self) -> bool:
        """True if the core has no internal scan chains."""
        return not self.scan_chains

    @property
    def wrapper_input_cells(self) -> int:
        """Wrapper cells on the scan-in path that are not internal scan cells."""
        return self.inputs + self.bidirs

    @property
    def wrapper_output_cells(self) -> int:
        """Wrapper cells on the scan-out path that are not internal scan cells."""
        return self.outputs + self.bidirs

    @property
    def test_bits_per_pattern(self) -> int:
        """Test-data bits that must be stored on the tester per pattern.

        Every pattern carries a stimulus for each input, bidir and scan cell
        and an expected response for each output, bidir and scan cell.
        """
        stimulus = self.inputs + self.bidirs + self.scan_cells
        response = self.outputs + self.bidirs + self.scan_cells
        return stimulus + response

    @property
    def total_test_bits(self) -> int:
        """Total test-data volume for this core, in bits."""
        return self.test_bits_per_pattern * self.patterns

    @property
    def test_power(self) -> float:
        """Power dissipated during this core's test.

        Uses the explicit :attr:`power` value when given, otherwise the
        paper's hypothetical model (test-data bits per pattern).
        """
        if self.power is not None:
            return self.power
        return float(self.test_bits_per_pattern)

    # ------------------------------------------------------------------
    # Convenience constructors / transforms
    # ------------------------------------------------------------------
    def with_power(self, power: float) -> "Core":
        """Return a copy of this core with an explicit test power value."""
        return self.replace(power=power)

    def replace(self, **changes: object) -> "Core":
        """Return a copy of this core with the given fields replaced."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)

    @classmethod
    def combinational(
        cls,
        name: str,
        inputs: int,
        outputs: int,
        patterns: int,
        bidirs: int = 0,
    ) -> "Core":
        """Build a combinational (scan-less) core."""
        return cls(
            name=name,
            inputs=inputs,
            outputs=outputs,
            bidirs=bidirs,
            patterns=patterns,
            scan_chains=(),
        )

    @classmethod
    def balanced_scan(
        cls,
        name: str,
        inputs: int,
        outputs: int,
        patterns: int,
        scan_cells: int,
        num_chains: int,
        bidirs: int = 0,
        **kwargs: object,
    ) -> "Core":
        """Build a core whose ``scan_cells`` are split into ``num_chains``
        chains of (nearly) equal length.

        This is how the ISCAS-89 based cores of the d695 benchmark are
        usually described ("1426 flip-flops in 32 chains").
        """
        if num_chains <= 0:
            raise ValueError("num_chains must be positive")
        if scan_cells < num_chains:
            raise ValueError("cannot have more scan chains than scan cells")
        base, extra = divmod(scan_cells, num_chains)
        chains = tuple(base + 1 for _ in range(extra)) + tuple(
            base for _ in range(num_chains - extra)
        )
        return cls(
            name=name,
            inputs=inputs,
            outputs=outputs,
            bidirs=bidirs,
            patterns=patterns,
            scan_chains=chains,
            **kwargs,
        )

    def describe(self) -> str:
        """One-line human readable description of the core."""
        scan = (
            f"{self.num_scan_chains} scan chains / {self.scan_cells} cells"
            if self.scan_chains
            else "combinational"
        )
        return (
            f"{self.name}: {self.inputs} in, {self.outputs} out, "
            f"{self.bidirs} bidir, {self.patterns} patterns, {scan}"
        )


def total_test_bits(cores: Sequence[Core]) -> int:
    """Total test-data volume of a collection of cores, in bits."""
    return sum(core.total_test_bits for core in cores)
