"""Correctness gate: every result is checked against a golden or a reference.

A result whose key is in ``benchmarks/golden_makespans.json`` must match
the golden makespan (and the golden schedule fingerprint where one is
pinned).  Any other key must match a reference recorded during set-up from
a serial ``workers=0`` solve, outside the timed phase.  A mismatch, or a
result with neither, is a failure; it counts in ``failed`` and makes the
run incorrect.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple


class Gate:
    def __init__(self, golden: Mapping[str, Any]) -> None:
        self._golden_makespans: Dict[str, int] = dict(golden.get("makespans", {}))
        self._golden_prints: Dict[str, str] = dict(golden.get("fingerprints", {}))
        self._references: Dict[str, Tuple[int, Optional[str]]] = {}
        self.checked = 0
        self.golden_checked = 0
        self.mismatches: List[str] = []

    def has_golden(self, key: str) -> bool:
        return key in self._golden_makespans

    def record_reference(self, key: str, makespan: int, fingerprint: Optional[str] = None) -> None:
        """Pin the serial result for a key the golden file does not cover."""
        self._references[key] = (int(makespan), fingerprint)

    def check(self, key: str, makespan: int, fingerprint: Optional[str] = None) -> bool:
        """Compare one result; returns whether it passed."""
        self.checked += 1
        if key in self._golden_makespans:
            self.golden_checked += 1
            want: Tuple[int, Optional[str]] = (
                self._golden_makespans[key],
                self._golden_prints.get(key),
            )
        elif key in self._references:
            want = self._references[key]
        else:
            self.mismatches.append(f"{key}: no golden value and no serial reference")
            return False
        want_makespan, want_print = want
        if makespan != want_makespan:
            self.mismatches.append(f"{key}: makespan {makespan} != expected {want_makespan}")
            return False
        if want_print is not None and fingerprint is not None and fingerprint != want_print:
            self.mismatches.append(f"{key}: schedule fingerprint differs from expected")
            return False
        return True
