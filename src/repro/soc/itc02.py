"""Plain-text SOC description format, modelled after the ITC'02 benchmarks.

The original ITC'02 SOC Test Benchmark files describe each module ("core")
by its terminal counts, scan-chain lengths and test-pattern counts.  The
format used here captures the same information in a simpler line-oriented
syntax that is easy to diff and to write by hand::

    # Anything after a '#' is a comment.
    SocName d695
    Core c6288   inputs=32  outputs=32  bidirs=0 patterns=12
    Core s9234   inputs=36  outputs=39  bidirs=0 patterns=105 scan=54,53,52,52
    Core child1  inputs=10  outputs=10  patterns=50 scan=20,20 parent=c6288
    Core bisted  inputs=4   outputs=4   patterns=10 scan=8 bist=engine0 power=130
    Core Core 7  inputs=4   outputs=4   patterns=10     # name: tokens before key=value

    # Optional scheduling constraints
    PowerMax 1800
    Precedence s9234 c6288          # s9234 must finish before c6288 starts
    Concurrency c6288 child1        # never test these two together
    MaxPreemptions s9234 2
    DefaultPreemptions 1

:func:`parse_soc` reads only the SOC structure; :func:`parse_soc_file`
(and :func:`load_soc`) additionally return the constraint set if any
constraint lines are present.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple, Union

from repro.soc.constraints import ConstraintSet
from repro.soc.core import Core
from repro.soc.soc import Soc


class SocFormatError(ValueError):
    """Raised when an SOC description file cannot be parsed."""


_CORE_KEYS = {"inputs", "outputs", "bidirs", "patterns", "scan", "power", "bist", "parent"}


def _strip_comment(line: str) -> str:
    if "#" in line:
        line = line.split("#", 1)[0]
    return line.strip()


def _parse_core_line(tokens: List[str], line_no: int) -> Core:
    # The name is every token before the first key=value, joined by single
    # spaces, so ITC'02 names such as "Core 1" survive the line format.
    first_field = next(
        (index for index, token in enumerate(tokens) if "=" in token), len(tokens)
    )
    if first_field < 2:
        raise SocFormatError(f"line {line_no}: 'Core' line needs a core name")
    name = " ".join(tokens[1:first_field])
    fields: Dict[str, str] = {}
    for token in tokens[first_field:]:
        if "=" not in token:
            raise SocFormatError(
                f"line {line_no}: expected key=value, got {token!r}"
            )
        key, value = token.split("=", 1)
        key = key.lower()
        if key not in _CORE_KEYS:
            raise SocFormatError(
                f"line {line_no}: unknown core attribute {key!r} "
                f"(expected one of {sorted(_CORE_KEYS)})"
            )
        fields[key] = value
    try:
        scan_text = fields.get("scan", "")
        scan_chains = tuple(
            int(part) for part in scan_text.split(",") if part.strip()
        )
        return Core(
            name=name,
            inputs=int(fields.get("inputs", 0)),
            outputs=int(fields.get("outputs", 0)),
            bidirs=int(fields.get("bidirs", 0)),
            patterns=int(fields.get("patterns", 1)),
            scan_chains=scan_chains,
            power=float(fields["power"]) if "power" in fields else None,
            bist_resource=fields.get("bist"),
            parent=fields.get("parent"),
        )
    except (ValueError, TypeError) as exc:
        if isinstance(exc, SocFormatError):
            raise
        raise SocFormatError(f"line {line_no}: invalid core description: {exc}") from exc


def parse_soc_with_constraints(text: str) -> Tuple[Soc, ConstraintSet]:
    """Parse an SOC description and any constraint lines it contains."""
    name: Optional[str] = None
    cores: List[Core] = []
    precedence: List[Tuple[str, str]] = []
    concurrency: List[Tuple[str, str]] = []
    power_max: Optional[float] = None
    max_preemptions: Dict[str, int] = {}
    default_preemptions = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0].lower()
        if keyword == "socname":
            if len(tokens) != 2:
                raise SocFormatError(f"line {line_no}: 'SocName' needs exactly one name")
            name = tokens[1]
        elif keyword == "core":
            cores.append(_parse_core_line(tokens, line_no))
        elif keyword == "powermax":
            if len(tokens) != 2:
                raise SocFormatError(f"line {line_no}: 'PowerMax' needs one value")
            power_max = float(tokens[1])
        elif keyword == "precedence":
            if len(tokens) != 3:
                raise SocFormatError(f"line {line_no}: 'Precedence' needs two core names")
            precedence.append((tokens[1], tokens[2]))
        elif keyword == "concurrency":
            if len(tokens) != 3:
                raise SocFormatError(f"line {line_no}: 'Concurrency' needs two core names")
            concurrency.append((tokens[1], tokens[2]))
        elif keyword == "maxpreemptions":
            if len(tokens) != 3:
                raise SocFormatError(
                    f"line {line_no}: 'MaxPreemptions' needs a core name and a limit"
                )
            max_preemptions[tokens[1]] = int(tokens[2])
        elif keyword == "defaultpreemptions":
            if len(tokens) != 2:
                raise SocFormatError(f"line {line_no}: 'DefaultPreemptions' needs one value")
            default_preemptions = int(tokens[1])
        else:
            raise SocFormatError(f"line {line_no}: unknown keyword {tokens[0]!r}")

    if name is None:
        raise SocFormatError("missing 'SocName' line")
    if not cores:
        raise SocFormatError(f"SOC {name!r} defines no cores")
    soc = Soc(name=name, cores=tuple(cores))
    constraints = ConstraintSet.for_soc(
        soc,
        precedence=precedence,
        concurrency=concurrency,
        power_max=power_max,
        max_preemptions=max_preemptions,
        default_preemptions=default_preemptions,
    )
    return soc, constraints


def parse_soc(text: str) -> Soc:
    """Parse an SOC description, ignoring any constraint lines."""
    soc, _ = parse_soc_with_constraints(text)
    return soc


def _token(text: str, what: str) -> str:
    """``text`` if it can be written as one whitespace-free token."""
    if "#" in text or text.split() != [text]:
        raise SocFormatError(f"{what} {text!r} cannot be written as one token")
    return text


def _core_name(name: str) -> str:
    """``name`` if a 'Core' line can carry it (see :func:`_parse_core_line`).

    Single interior spaces are fine; ``=``, ``#`` and leading, trailing,
    repeated or non-space whitespace would not read back as the same name.
    """
    if "=" in name or "#" in name or " ".join(name.split()) != name:
        raise SocFormatError(f"core name {name!r} cannot be written on a 'Core' line")
    return name


def _format_core(core: Core) -> str:
    parts = [
        f"Core {_core_name(core.name)}",
        f"inputs={core.inputs}",
        f"outputs={core.outputs}",
        f"bidirs={core.bidirs}",
        f"patterns={core.patterns}",
    ]
    if core.scan_chains:
        parts.append("scan=" + ",".join(str(length) for length in core.scan_chains))
    if core.power is not None:
        power = core.power
        parts.append(f"power={int(power) if power == int(power) else power}")
    if core.bist_resource is not None:
        parts.append(f"bist={_token(core.bist_resource, 'BIST resource')}")
    if core.parent is not None:
        parts.append(f"parent={_token(core.parent, 'parent core name')}")
    return " ".join(parts)


def format_soc(soc: Soc, constraints: Optional[ConstraintSet] = None) -> str:
    """Serialise an SOC (and optionally its constraints) to text.

    Raises :class:`SocFormatError` for a name the text cannot carry, so
    every text this returns parses back to the same SOC.
    """
    lines = [f"SocName {_token(soc.name, 'SOC name')}"]
    for core in soc.cores:
        lines.append(_format_core(core))
    if constraints is not None:
        if constraints.power_max is not None:
            power = constraints.power_max
            lines.append(
                f"PowerMax {int(power) if power == int(power) else power}"
            )
        for before, after in constraints.precedence:
            lines.append(
                f"Precedence {_token(before, 'core name')} {_token(after, 'core name')}"
            )
        for pair in constraints.concurrency:
            a, b = sorted(pair)
            lines.append(f"Concurrency {_token(a, 'core name')} {_token(b, 'core name')}")
        if constraints.default_preemptions:
            lines.append(f"DefaultPreemptions {constraints.default_preemptions}")
        for core_name in sorted(constraints.max_preemptions):
            limit = constraints.max_preemptions[core_name]
            lines.append(f"MaxPreemptions {_token(core_name, 'core name')} {limit}")
    return "\n".join(lines) + "\n"


def load_soc(path: Union[str, os.PathLike]) -> Tuple[Soc, ConstraintSet]:
    """Load an SOC description (and constraints) from a file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_soc_with_constraints(handle.read())


def save_soc(
    soc: Soc,
    path: Union[str, os.PathLike],
    constraints: Optional[ConstraintSet] = None,
) -> None:
    """Write an SOC description (and optionally constraints) to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_soc(soc, constraints))
