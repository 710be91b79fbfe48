"""Aggregation and export of sweep results.

A :class:`SweepResults` holds the :class:`~repro.engine.jobs.JobResult`
records of one engine run, in job order.  It offers the two reductions every
experiment driver needs -- *best per group* (Table 1 cells) and *per-width
series* (TAM sweeps) -- plus dependency-free CSV and JSON export of the flat
record form.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine.faults import (
    STAGE_SERIAL,
    FailureRecord,
    RecoveryEvent,
    ladder_stage,
)
from repro.engine.jobs import EngineError, JobResult

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

# Run-level execution-stat columns appended (same value on every record)
# when the run's :class:`ExecutorStats` carries a nonzero counter; absent
# on stat-less and purely-serial runs so legacy CSV shapes are unchanged
# (the ``recovery_events`` convention: execution detail appears only when
# there is execution detail to report).
_STATS_FIELDS = ("board_aborts",)


@dataclass(frozen=True)
class ExecutorStats:
    """How one engine run was executed (excluded from results equality).

    ``tasks`` counts the flat scheduler-run tasks the executor dispatched
    (a decomposed ``best`` job contributes one task per deduplicated grid
    run, so ``tasks > jobs`` whenever decomposition happened).

    Fault tolerance is reported through the *recovery ladder*:
    ``recovery_events`` lists every downward step the run took
    (``parallel -> resurrected -> quarantined -> serial``) and
    ``failures`` is the structured fault journal behind those steps.  A
    clean run has neither.  ``retries``/``resurrections``/``quarantined``
    are the matching counters, and :attr:`degraded_to_serial` is kept as
    a derived compatibility property (``True`` whenever any work ran on
    the serial rung -- the same condition that emits a
    :class:`RuntimeWarning` on pool-creation failure).

    ``board_aborts`` counts the runs the incumbent board killed *mid-run*
    inside workers.  Like the recovery counters it depends on scheduling
    races, never on results.
    """

    jobs: int = 0
    decomposed_jobs: int = 0
    tasks: int = 0
    workers: int = 0
    retries: int = 0
    resurrections: int = 0
    quarantined: int = 0
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

    ``stats`` describes *how* the run executed (task decomposition, worker
    count, serial degrade) and is excluded from equality: a serial and a
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
    # Reductions
    # ------------------------------------------------------------------
    def best_by_group(self) -> Dict[Tuple[Any, ...], JobResult]:
        """The best (smallest makespan) result of every job group.

        Ties break on the job index, i.e. the job generated *first* in grid
        order wins -- exactly the result the equivalent serial loop keeps.
        Groups appear in order of first appearance.
        """
        best: Dict[Tuple[Any, ...], JobResult] = {}
        for result in self.results:
            group = result.job.group
            current = best.get(group)
            if current is None or (result.makespan, result.job.index) < (
                current.makespan,
                current.job.index,
            ):
                best[group] = result
        return best

    def for_group(self, group: Sequence[Any]) -> List[JobResult]:
        """All results whose job belongs to the given group, in job order."""
        key = tuple(group)
        return [result for result in self.results if result.job.group == key]

    def best_for_group(self, group: Sequence[Any]) -> JobResult:
        """The best result of one group."""
        candidates = self.for_group(group)
        if not candidates:
            raise EngineError(f"no results in group {tuple(group)!r}")
        return min(
            candidates, key=lambda result: (result.makespan, result.job.index)
        )

    @property
    def groups(self) -> List[Tuple[Any, ...]]:
        """All distinct job groups, in order of first appearance."""
        seen: List[Tuple[Any, ...]] = []
        for result in self.results:
            if result.job.group not in seen:
                seen.append(result.job.group)
        return seen

    @property
    def total_wall_time(self) -> float:
        """Sum of per-job wall times (CPU work, not elapsed sweep time)."""
        return sum(result.wall_time for result in self.results)

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

    def _stats_names(self) -> List[str]:
        """Executor-stat columns: only counters the run actually touched."""
        if self.stats is None:
            return []
        return [name for name in _STATS_FIELDS if getattr(self.stats, name)]

    def to_records(self) -> List[Dict[str, Any]]:
        """Flat dict records (one per job), ready for CSV/JSON export."""
        tag_names = self._tag_names()
        metadata_names = self._metadata_names()
        stats_names = self._stats_names()
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
            for name in stats_names:
                record[name] = getattr(self.stats, name)
            records.append(record)
        return records

    def to_csv(self) -> str:
        """Serialise the records to CSV text."""
        headers = list(_BASE_FIELDS) + self._tag_names() + self._metadata_names()
        headers.extend(name for name in self._stats_names() if name not in headers)
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
