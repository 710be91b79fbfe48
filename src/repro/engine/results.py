"""Aggregation and export of sweep results.

A :class:`SweepResults` holds the :class:`~repro.engine.jobs.JobResult`
records of one engine run, in job order, with dependency-free CSV and JSON
export of the flat record form.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.engine.faults import (
    STAGE_SERIAL,
    FailureRecord,
    RecoveryEvent,
    ladder_stage,
)
from repro.engine.jobs import JobResult

# Columns every record has, in export order; tag columns follow.
_BASE_FIELDS = (
    "index",
    "soc",
    "width",
    "percent",
    "delta",
    "insertion_slack",
    "max_core_width",
    "constraints",
    "solver",
    "group",
    "makespan",
    "data_volume",
    "wall_time",
    "worker",
)

@dataclass(frozen=True)
class ExecutorStats:
    """How one engine run was executed (excluded from results equality).

    ``tasks`` counts the pool tasks the executor dispatched: one per job,
    since every job -- a ``best`` grid included -- runs whole.  ``workers``
    is the pool's process count whenever a pool ran the round (0 for the
    serial path).

    Fault tolerance is reported through the *recovery ladder*:
    ``recovery_events`` lists every downward step the run took
    (``parallel -> resurrected -> quarantined -> serial``) and
    ``failures`` is the structured fault journal behind those steps.  A
    clean run has neither.  ``retries``/``resurrections``/``quarantined``
    are the matching counters, and :attr:`degraded_to_serial` is kept as
    a derived compatibility property (``True`` whenever any work ran on
    the serial rung -- the same condition that emits a
    :class:`RuntimeWarning` on pool-creation failure).
    """

    jobs: int = 0
    #: Always 0 (no job splits into grid-run tasks); ``perfbench`` reads it.
    decomposed_jobs: int = 0
    tasks: int = 0
    workers: int = 0
    retries: int = 0
    resurrections: int = 0
    quarantined: int = 0
    #: Always 0 (there is no incumbent board); ``perfbench`` reads it.
    board_aborts: int = 0
    recovery_events: Tuple[RecoveryEvent, ...] = ()
    failures: Tuple[FailureRecord, ...] = ()

    @property
    def degraded_to_serial(self) -> bool:
        """Derived compatibility flag: did any work run on the serial rung?"""
        return any(event.stage == STAGE_SERIAL for event in self.recovery_events)

    @property
    def recovery_stage(self) -> str:
        """The deepest recovery-ladder stage reached (``parallel`` if clean)."""
        return ladder_stage(self.recovery_events)


@dataclass(frozen=True)
class SweepResults:
    """The ordered results of one engine run.

    ``stats`` describes *how* the run executed (task count, worker count,
    serial degrade) and is excluded from equality: a serial and a
    parallel run of the same grid compare equal record-for-record.
    """

    results: Tuple[JobResult, ...] = field(default_factory=tuple)
    stats: Optional[ExecutorStats] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.results, key=lambda result: result.job.index)
        )
        object.__setattr__(self, "results", ordered)

    @property
    def degraded_to_serial(self) -> bool:
        """True when a requested worker pool degraded to the serial path."""
        return self.stats is not None and self.stats.degraded_to_serial

    @property
    def recovery_events(self) -> Tuple[RecoveryEvent, ...]:
        """The run's recovery ladder (empty for a clean or stat-less run)."""
        return self.stats.recovery_events if self.stats is not None else ()

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[JobResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> JobResult:
        return self.results[index]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _tag_names(self) -> List[str]:
        names: List[str] = []
        for result in self.results:
            for name, _ in result.job.tags:
                if name not in names:
                    names.append(name)
        return names

    def _metadata_names(self) -> List[str]:
        """Solver-metadata columns (e.g. the ``best`` sweep's winner point).

        Only scalar values are exported; names are ordered by first
        appearance, after the tag columns.
        """
        names: List[str] = []
        for result in self.results:
            for name, value in result.metadata:
                if name not in names and isinstance(value, (str, int, float, bool)):
                    names.append(name)
        return names

    def to_records(self) -> List[Dict[str, Any]]:
        """Flat dict records (one per job), ready for CSV/JSON export."""
        tag_names = self._tag_names()
        metadata_names = self._metadata_names()
        records = []
        for result in self.results:
            job = result.job
            record: Dict[str, Any] = {
                "index": job.index,
                "soc": job.soc,
                "width": job.width,
                "percent": job.config.percent,
                "delta": job.config.delta,
                "insertion_slack": job.config.insertion_slack,
                "max_core_width": job.config.max_core_width,
                "constraints": job.constraints or "",
                "solver": job.solver,
                "group": "/".join(str(part) for part in job.group),
                "makespan": result.makespan,
                "data_volume": result.data_volume,
                "wall_time": result.wall_time,
                "worker": result.worker,
            }
            for name in tag_names:
                record[name] = job.tag(name, default="")
            if metadata_names:
                metadata = dict(result.metadata)
                for name in metadata_names:
                    record[name] = metadata.get(name, "")
            records.append(record)
        return records

    def to_csv(self) -> str:
        """Serialise the records to CSV text."""
        headers = list(_BASE_FIELDS) + self._tag_names() + self._metadata_names()
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=headers, lineterminator="\n")
        writer.writeheader()
        for record in self.to_records():
            writer.writerow(record)
        return buffer.getvalue()

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise the records to JSON text."""
        return json.dumps(self.to_records(), indent=indent)

    def save_csv(self, path: Union[str, os.PathLike]) -> None:
        """Write the CSV form to a file."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.to_csv())

    def save_json(self, path: Union[str, os.PathLike], indent: int = 2) -> None:
        """Write the JSON form to a file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(indent=indent))
