"""Service-level chaos: prove the supervisor under process-shaped faults.

The engine chaos harness (``repro chaos``) proves that a sweep-engine run
survives worker kills, injected exceptions, hangs and pool-creation
failures byte-identically.  This module lifts the same discipline one
layer up, to the *service*: each scenario drives a real
:class:`~repro.service.supervisor.Supervisor` through a fault that only
exists once there is a server (service solves run in worker threads, so
no pool fault can reach them) --

``disconnect``
    client A disconnects while its solve is in flight and an identical
    request from client B has coalesced onto it; A's run is abandoned
    via its cancel token, B is re-dispatched and must still get the
    batch-identical result.
``server-kill``
    the server "SIGKILLs" (journalling and delivery stop dead) between
    two requests; a fresh supervisor on the same journal re-serves the
    completed-but-unacked result **verbatim** and re-runs the unsettled
    request to the batch-identical result.
``flood``
    more requests than ``queue_limit`` arrive while the single worker is
    held; exactly ``queue_limit`` are accepted, the rest are rejected
    ``overloaded``, and every accepted request still settles correctly.

Determinism: scenarios gate the supervisor's worker threads on events
(via ``started_hook``) instead of sleeping, so the interleavings are
forced, not raced.  Every identity check compares canonical result dicts
(:func:`~repro.service.protocol.canonical_result_dict` -- ``wall_time``
zeroed) against a fault-free batch solve of the same request.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service import protocol
from repro.service.supervisor import ServiceConfig, Supervisor
from repro.solvers import ScheduleRequest, Session
from repro.soc.soc import Soc

SERVE_FAULT_KINDS: Tuple[str, ...] = (
    "disconnect",
    "server-kill",
    "flood",
)

#: Trimmed ``best`` grid: a few scheduler runs per solve, small enough for
#: smoke runs (mirrors the perf-suite trim).
SERVE_SOLVE_OPTIONS: Dict[str, Any] = {
    "percents": (1, 25),
    "deltas": (0,),
    "slacks": (3, 6),
}

_GATE_TIMEOUT = 60.0


@dataclass(frozen=True)
class ServeChaosOutcome:
    """One scenario's verdict."""

    kind: str
    passed: bool
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly form."""
        return {"kind": self.kind, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ServeChaosReport:
    """The whole serve-chaos run: one outcome per requested fault kind."""

    soc_name: str
    width: int
    outcomes: Tuple[ServeChaosOutcome, ...]

    @property
    def ok(self) -> bool:
        """True when every scenario held its byte-identity contract."""
        return all(outcome.passed for outcome in self.outcomes)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly form (the ``--journal`` export)."""
        return {
            "soc": self.soc_name,
            "width": self.width,
            "ok": self.ok,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }


class _Collector:
    """Thread-safe reply sink recording every delivered server message."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._messages: List[Dict[str, Any]] = []

    def __call__(self, message: Dict[str, Any]) -> None:
        with self._lock:
            self._messages.append(dict(message))

    def messages(self, event: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            snapshot = list(self._messages)
        if event is None:
            return snapshot
        return [message for message in snapshot if message.get("event") == event]

    def results(self) -> Dict[str, Dict[str, Any]]:
        return {
            message["id"]: dict(message["result"])
            for message in self.messages(protocol.EVENT_RESULT)
        }


class _Gate:
    """Holds the first solve at its ``started`` hook until released."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, request_id: str) -> None:
        with self._lock:
            self._calls += 1
            first = self._calls == 1
        if first:
            self.entered.set()
            self.release.wait(timeout=_GATE_TIMEOUT)


def _base_request(soc: Soc, width: int) -> ScheduleRequest:
    return ScheduleRequest(
        soc=soc, total_width=width, solver="best", options=dict(SERVE_SOLVE_OPTIONS)
    )


def _batch_canonical(request: ScheduleRequest) -> Dict[str, Any]:
    """The fault-free batch reference, in canonical (wall-time-free) form."""
    session = Session()
    try:
        return protocol.canonical_result_dict(session.solve(request).to_dict())
    finally:
        session.close()


def _identical(result: Dict[str, Any], reference: Dict[str, Any]) -> bool:
    return protocol.canonical_result_dict(result) == reference


def _failed_outcome(kind: str, detail: str) -> ServeChaosOutcome:
    return ServeChaosOutcome(kind=kind, passed=False, detail=detail)


def _passed_outcome(kind: str, detail: str) -> ServeChaosOutcome:
    return ServeChaosOutcome(kind=kind, passed=True, detail=detail)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _scenario_disconnect(
    soc: Soc, width: int, reference: Dict[str, Any]
) -> ServeChaosOutcome:
    """Client A vanishes mid-solve; coalesced client B must still be served."""
    kind = "disconnect"
    supervisor = Supervisor(config=ServiceConfig(max_inflight=2))
    collector = _Collector()
    gate = _Gate()
    supervisor.started_hook = gate
    request = _base_request(soc, width)
    try:
        supervisor.start()
        supervisor.submit("dc-a", request, collector, client="alice")
        if not gate.entered.wait(timeout=_GATE_TIMEOUT):
            return _failed_outcome(kind, "primary solve never started")
        supervisor.submit("dc-b", request, collector, client="bob")
        # Let B coalesce onto A's (gated) in-flight solve before pulling
        # the plug on A.
        deadline = time.perf_counter() + _GATE_TIMEOUT
        while supervisor.stats().get("dedup_coalesced", 0) < 1:
            if time.perf_counter() >= deadline:
                return _failed_outcome(
                    kind, "follower never coalesced onto the primary"
                )
            time.sleep(0.005)
        supervisor.disconnect("alice")
        gate.release.set()
        if not supervisor.drain(timeout=_GATE_TIMEOUT):
            return _failed_outcome(kind, "drain timed out")
    finally:
        gate.release.set()
        supervisor.close()
    results = collector.results()
    if "dc-a" in results:
        return _failed_outcome(kind, "disconnected client still received a result")
    if "dc-b" not in results:
        return _failed_outcome(kind, "surviving client was never served")
    if not _identical(results["dc-b"], reference):
        return _failed_outcome(kind, "re-dispatched result drifted from batch")
    stats = supervisor.stats()
    return _passed_outcome(
        kind,
        "primary abandoned on disconnect; follower re-dispatched "
        f"(redispatched={stats.get('redispatched', 0)}) and served identically",
    )


def _scenario_server_kill(
    soc: Soc, width: int, reference: Dict[str, Any], journal_dir: Path
) -> ServeChaosOutcome:
    """SIGKILL between requests; the journal must make restart lossless."""
    kind = "server-kill"
    journal_path = journal_dir / "serve_chaos_journal.jsonl"
    if journal_path.exists():
        journal_path.unlink()
    request_one = _base_request(soc, width)
    request_two = request_one.with_options(slacks=(3,))
    reference_two = _batch_canonical(request_two)

    first = Supervisor(
        config=ServiceConfig(max_inflight=1, journal_path=journal_path)
    )
    collector = _Collector()

    def crash_on_second(request_id: str) -> None:
        if request_id == "sk-2":
            first.crash_for_test()

    first.started_hook = crash_on_second
    try:
        first.start()
        first.submit("sk-1", request_one, collector)
        first.submit("sk-2", request_two, collector)
        first.drain(timeout=_GATE_TIMEOUT)
    finally:
        first.close()
    results = collector.results()
    if "sk-1" not in results:
        return _failed_outcome(kind, "first request was not served before the kill")
    if "sk-2" in results:
        return _failed_outcome(kind, "killed server somehow delivered a result")
    pre_kill_result = results["sk-1"]

    replay_collector = _Collector()
    second = Supervisor(
        config=ServiceConfig(max_inflight=1, journal_path=journal_path)
    )
    try:
        second.start(replay_reply=replay_collector)
        if not second.drain(timeout=_GATE_TIMEOUT):
            return _failed_outcome(kind, "recovery drain timed out")
    finally:
        second.close()
    replayed = {
        message["id"]: message
        for message in replay_collector.messages(protocol.EVENT_RESULT)
    }
    if "sk-1" not in replayed:
        return _failed_outcome(kind, "completed-unacked request was not replayed")
    if replayed["sk-1"].get("dedup") != protocol.DEDUP_REPLAYED:
        return _failed_outcome(kind, "replayed result not marked as replayed")
    if dict(replayed["sk-1"]["result"]) != pre_kill_result:
        # Verbatim means verbatim: wall_time included, byte for byte.
        return _failed_outcome(kind, "replayed result differs from the original")
    if "sk-2" not in replayed:
        return _failed_outcome(kind, "unsettled request was not re-run after restart")
    if not _identical(dict(replayed["sk-2"]["result"]), reference_two):
        return _failed_outcome(kind, "re-run result drifted from batch reference")
    return _passed_outcome(
        kind,
        "journal replay re-served the unacked result verbatim and re-ran "
        "the unsettled request byte-identically",
    )


def _scenario_flood(
    soc: Soc, width: int, reference: Dict[str, Any]
) -> ServeChaosOutcome:
    """Overfill the queue: exact admission accounting, no lost work."""
    kind = "flood"
    config = ServiceConfig(max_inflight=1, queue_limit=2)
    supervisor = Supervisor(config=config)
    collector = _Collector()
    gate = _Gate()
    supervisor.started_hook = gate
    request = _base_request(soc, width)
    try:
        supervisor.start()
        supervisor.submit("fl-0", request, collector)
        if not gate.entered.wait(timeout=_GATE_TIMEOUT):
            return _failed_outcome(kind, "gated solve never started")
        for index in range(1, 7):
            supervisor.submit(f"fl-{index}", request, collector)
        gate.release.set()
        if not supervisor.drain(timeout=_GATE_TIMEOUT):
            return _failed_outcome(kind, "drain timed out")
    finally:
        gate.release.set()
        supervisor.close()
    accepted = collector.messages(protocol.EVENT_ACCEPTED)
    rejected = [
        message
        for message in collector.messages(protocol.EVENT_REJECTED)
        if message.get("reason") == protocol.REJECT_OVERLOADED
    ]
    if len(accepted) != 1 + config.queue_limit:
        return _failed_outcome(
            kind, f"expected {1 + config.queue_limit} accepts, got {len(accepted)}"
        )
    if len(rejected) != 6 - config.queue_limit:
        return _failed_outcome(
            kind, f"expected {6 - config.queue_limit} overload rejects, got {len(rejected)}"
        )
    if any(message.get("queue_depth") != config.queue_limit for message in rejected):
        return _failed_outcome(kind, "overload rejections misreported queue depth")
    results = collector.results()
    accepted_ids = {message["id"] for message in accepted}
    if set(results) != accepted_ids:
        return _failed_outcome(
            kind, f"accepted {sorted(accepted_ids)} but served {sorted(results)}"
        )
    if not all(_identical(result, reference) for result in results.values()):
        return _failed_outcome(kind, "a flooded result drifted from batch reference")
    return _passed_outcome(
        kind,
        f"{len(accepted)} accepted / {len(rejected)} rejected overloaded; "
        "every accepted request served batch-identically",
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_serve_chaos(
    soc: Soc,
    width: int,
    kinds: Sequence[str] = SERVE_FAULT_KINDS,
    journal_dir: Optional[Path] = None,
) -> ServeChaosReport:
    """Run the requested service-level fault scenarios against one SOC.

    Every scenario asserts that each completed request's result is
    canonically identical to a fault-free batch ``Session.solve`` of the
    same request (and the replay scenario additionally asserts verbatim
    journal re-serving).
    """
    unknown = sorted(set(kinds) - set(SERVE_FAULT_KINDS))
    if unknown:
        raise ValueError(
            f"unknown serve fault kind(s) {', '.join(unknown)}; "
            f"expected a subset of {SERVE_FAULT_KINDS}"
        )
    reference = _batch_canonical(_base_request(soc, width))
    outcomes: List[ServeChaosOutcome] = []
    for kind in kinds:
        if kind == "disconnect":
            outcomes.append(_scenario_disconnect(soc, width, reference))
        elif kind == "server-kill":
            if journal_dir is None:
                with tempfile.TemporaryDirectory() as tmp:
                    outcomes.append(
                        _scenario_server_kill(soc, width, reference, Path(tmp))
                    )
            else:
                outcomes.append(
                    _scenario_server_kill(soc, width, reference, journal_dir)
                )
        elif kind == "flood":
            outcomes.append(_scenario_flood(soc, width, reference))
    return ServeChaosReport(soc_name=soc.name, width=width, outcomes=tuple(outcomes))


__all__ = [
    "SERVE_FAULT_KINDS",
    "SERVE_SOLVE_OPTIONS",
    "ServeChaosOutcome",
    "ServeChaosReport",
    "run_serve_chaos",
]
