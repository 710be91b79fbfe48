"""Write-ahead event journal of the scheduling service.

The supervisor appends one JSONL record per request state transition --
``accepted`` (with the full request payload) before the request enters
the queue, ``started`` when a worker picks it up, ``completed`` (with the
full result payload) or ``failed`` when it settles, and ``acked`` when
the client acknowledges delivery.  Records carry a monotone ``seq`` and
**no wall-clock timestamps** (the ``faults.py`` discipline: deterministic
artifacts only), so two runs over the same traffic journal identically.

Because the request and result payloads are journalled in full, a
killed-and-restarted server needs nothing but this file to recover:

* ``completed``-but-not-``acked`` requests are re-served **verbatim**
  from the journal (provably byte-identical to what the dead server
  computed);
* ``accepted``-but-unsettled requests are deterministically re-run (the
  solvers are pure functions of the request);
* every ``completed`` record seeds the fingerprint->result dedup cache,
  so the restarted server also keeps its dedup behaviour.

:func:`EventJournal.load` tolerates a truncated final line -- the one
write a SIGKILL can tear -- but refuses corruption anywhere else.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

KIND_ACCEPTED = "accepted"
KIND_STARTED = "started"
KIND_COMPLETED = "completed"
KIND_FAILED = "failed"
KIND_ACKED = "acked"
RECORD_KINDS: Tuple[str, ...] = (
    KIND_ACCEPTED,
    KIND_STARTED,
    KIND_COMPLETED,
    KIND_FAILED,
    KIND_ACKED,
)


class JournalError(ValueError):
    """Raised when a journal file cannot be parsed."""


@dataclass(frozen=True)
class JournalRecord:
    """One write-ahead record: a request's state transition.

    ``payload`` carries the transition's data: the request dict (and
    optional deadline seconds) for ``accepted``, the result dict plus
    dedup provenance for ``completed``, the failure reason for
    ``failed``; ``started``/``acked`` need none.
    """

    seq: int
    kind: str
    request_id: str
    fingerprint: str = ""
    payload: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise JournalError(
                f"unknown journal record kind {self.kind!r}; "
                f"expected one of {RECORD_KINDS}"
            )
        object.__setattr__(self, "payload", dict(self.payload))

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly form (one journal line)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "id": self.request_id,
            "fingerprint": self.fingerprint,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "JournalRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Raises :class:`JournalError` unless ``data`` is a JSON object whose
        fields have the types :meth:`to_dict` writes.
        """
        if not isinstance(data, dict):
            raise JournalError(
                f"a journal record must be a JSON object, not {type(data).__name__}"
            )
        seq = data.get("seq", 0)
        if isinstance(seq, bool) or not isinstance(seq, int):
            raise JournalError(f"journal record 'seq' must be an integer, got {seq!r}")
        for key in ("kind", "id", "fingerprint"):
            if not isinstance(data.get(key, ""), str):
                raise JournalError(f"journal record {key!r} must be a string")
        payload = data.get("payload")
        if payload is None:
            payload = {}
        elif not isinstance(payload, dict):
            raise JournalError("journal record 'payload' must be a JSON object")
        return cls(
            seq=seq,
            kind=data.get("kind", ""),
            request_id=data.get("id", ""),
            fingerprint=data.get("fingerprint", ""),
            payload=payload,
        )


class EventJournal:
    """Append-only JSONL write-ahead journal (thread-safe).

    ``path=None`` keeps records in memory only -- tests and the bench
    suite use that.  Each append writes one line and flushes it before
    returning, so the record survives anything short of the kernel losing
    buffered file data; ``fsync=True`` pays a sync per record to survive
    that too.
    """

    def __init__(
        self,
        path: Optional[Path] = None,
        fsync: bool = False,
        start_seq: int = 0,
    ) -> None:
        self._path = Path(path) if path is not None else None
        self._fsync = fsync
        self._lock = threading.Lock()
        self._records: List[JournalRecord] = []
        self._seq = int(start_seq)
        self._handle = (
            open(self._path, "a", encoding="utf-8") if self._path is not None else None
        )

    @property
    def path(self) -> Optional[Path]:
        """The backing file, or ``None`` for an in-memory journal."""
        return self._path

    def append(
        self,
        kind: str,
        request_id: str,
        fingerprint: str = "",
        payload: Optional[Mapping[str, Any]] = None,
    ) -> JournalRecord:
        """Write one record ahead of acting on it; returns the record."""
        with self._lock:
            self._seq += 1
            record = JournalRecord(
                seq=self._seq,
                kind=kind,
                request_id=request_id,
                fingerprint=fingerprint,
                payload=dict(payload or {}),
            )
            self._records.append(record)
            if self._handle is not None:
                line = json.dumps(
                    record.to_dict(), sort_keys=True, separators=(",", ":")
                )
                self._handle.write(line + "\n")
                self._handle.flush()
                if self._fsync:
                    os.fsync(self._handle.fileno())
            return record

    def records(self) -> Tuple[JournalRecord, ...]:
        """Every record appended through this journal instance."""
        with self._lock:
            return tuple(self._records)

    def close(self) -> None:
        """Close the backing file (idempotent; in-memory records remain)."""
        with self._lock:
            handle, self._handle = self._handle, None
            if handle is not None:
                handle.close()

    @staticmethod
    def load(path: Path) -> List[JournalRecord]:
        """Read a journal file back into records.

        A malformed *final* line is dropped (a crash can tear the last
        write); a malformed line anywhere else raises
        :class:`JournalError`.
        """
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
        records: List[JournalRecord] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(JournalRecord.from_dict(json.loads(line.decode("utf-8"))))
            # Undecodable bytes, bad JSON and wrong-shaped records are all
            # ValueErrors; a JSON array nested past the parser's depth
            # limit raises RecursionError.
            except (ValueError, RecursionError) as error:
                if index == len(lines) - 1:
                    break  # torn final write: recover everything before it
                raise JournalError(
                    f"{path}: corrupt journal line {index + 1}: {error}"
                ) from error
        return records


@dataclass(frozen=True)
class ReplayPlan:
    """What a restarted server must do, derived from the journal.

    ``pending`` are the ``accepted`` records of requests that never
    settled (re-run them); ``completed_unacked`` are the ``completed``
    records never acknowledged (re-serve them verbatim); ``cache`` seeds
    the fingerprint->result dedup cache from every completed request;
    ``seen_ids`` restores duplicate-id rejection across the restart.
    """

    pending: Tuple[JournalRecord, ...]
    completed_unacked: Tuple[JournalRecord, ...]
    cache: Mapping[str, Mapping[str, Any]]
    seen_ids: Tuple[str, ...]
    completed_ids: Tuple[str, ...]
    next_seq: int


def replay(records: Sequence[JournalRecord]) -> ReplayPlan:
    """Fold journal records into a :class:`ReplayPlan` (pure function)."""
    accepted: Dict[str, JournalRecord] = {}
    completed: Dict[str, JournalRecord] = {}
    settled: Dict[str, str] = {}  # id -> terminal kind
    acked: Dict[str, bool] = {}
    cache: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    next_seq = 0
    for record in records:
        next_seq = max(next_seq, record.seq)
        request_id = record.request_id
        if record.kind == KIND_ACCEPTED:
            if request_id not in accepted:
                order.append(request_id)
            accepted[request_id] = record
        elif record.kind == KIND_COMPLETED:
            completed[request_id] = record
            settled[request_id] = KIND_COMPLETED
            result = record.payload.get("result")
            if record.fingerprint and isinstance(result, dict):
                cache[record.fingerprint] = dict(result)
        elif record.kind == KIND_FAILED:
            settled[request_id] = KIND_FAILED
        elif record.kind == KIND_ACKED:
            acked[request_id] = True
    pending = tuple(
        accepted[request_id]
        for request_id in order
        if request_id not in settled
    )
    completed_unacked = tuple(
        completed[request_id]
        for request_id in order
        if settled.get(request_id) == KIND_COMPLETED and not acked.get(request_id)
    )
    return ReplayPlan(
        pending=pending,
        completed_unacked=completed_unacked,
        cache=cache,
        seen_ids=tuple(order),
        completed_ids=tuple(
            request_id
            for request_id in order
            if settled.get(request_id) == KIND_COMPLETED
        ),
        next_seq=next_seq,
    )


__all__ = [
    "EventJournal",
    "JournalError",
    "JournalRecord",
    "KIND_ACCEPTED",
    "KIND_ACKED",
    "KIND_COMPLETED",
    "KIND_FAILED",
    "KIND_STARTED",
    "RECORD_KINDS",
    "ReplayPlan",
    "replay",
]
