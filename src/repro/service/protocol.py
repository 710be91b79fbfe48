"""Wire protocol of the scheduling service: JSONL request/reply messages.

One message per line, JSON objects both ways.  Client messages carry an
``op``; server messages carry an ``event``.  The vocabulary follows the
commitment-style request/ack shape: a ``solve`` is *accepted* (admitted
to the bounded queue) or *rejected* (admission control), later settles as
a *result* or a *failed* event, and the client may *ack* a result to let
the server retire it from the replay set of the write-ahead journal.

Client ops
----------
``{"op": "solve", "id": "r1", "request": {...}, "deadline": 5.0}``
    Submit one :class:`~repro.solvers.request.ScheduleRequest` (its
    ``to_dict`` form) under a client-chosen unique id.  ``deadline`` is
    an optional per-request budget in seconds; a request that cannot
    settle inside it fails with ``deadline-exceeded`` and its grid runs
    are abandoned mid-flight.
``{"op": "ack", "id": "r1"}``
    Acknowledge a received result; a journal replay after a crash will
    not re-serve acked requests.
``{"op": "cancel", "id": "r1"}``
    Cancel a queued or in-flight request.
``{"op": "stats"}``
    Ask for a supervisor statistics snapshot (queue depth included --
    this is the backpressure signal).
``{"op": "shutdown"}``
    Drain and stop the server.

Server events
-------------
``hello``      protocol version + admission limits, sent on connect.
``accepted``   the request was admitted; carries the request fingerprint
               and the post-admission queue depth (backpressure signal).
``rejected``   admission refused: ``overloaded`` (queue full),
               ``bad-request``, ``duplicate-id`` or ``shutting-down``.
``result``     the solved :class:`~repro.solvers.request.ScheduleResult`
               (its ``to_dict`` form) plus the dedup provenance
               (``fresh``/``coalesced``/``cached``/``replayed``).
``failed``     the request settled without a result: ``deadline-exceeded``,
               ``cancelled``, ``disconnect``, ``solver-error`` or
               ``internal-error``.
``stats``      the statistics snapshot.
``bye``        the server finished draining; carries the served count.

Messages are plain dicts (validated by :func:`parse_client_line`), not
dataclasses: the protocol is the JSON itself, and the frozen wire shapes
(REP005) stay those of ``ScheduleRequest``/``ScheduleResult``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Mapping

PROTOCOL_VERSION = 1

# -- client ops --------------------------------------------------------
OP_SOLVE = "solve"
OP_ACK = "ack"
OP_CANCEL = "cancel"
OP_STATS = "stats"
OP_SHUTDOWN = "shutdown"
CLIENT_OPS = (OP_SOLVE, OP_ACK, OP_CANCEL, OP_STATS, OP_SHUTDOWN)

# -- server events -----------------------------------------------------
EVENT_HELLO = "hello"
EVENT_ACCEPTED = "accepted"
EVENT_REJECTED = "rejected"
EVENT_RESULT = "result"
EVENT_FAILED = "failed"
EVENT_STATS = "stats"
EVENT_BYE = "bye"

# -- admission rejection reasons ---------------------------------------
REJECT_OVERLOADED = "overloaded"
REJECT_BAD_REQUEST = "bad-request"
REJECT_DUPLICATE_ID = "duplicate-id"
REJECT_SHUTTING_DOWN = "shutting-down"

# -- post-admission failure reasons ------------------------------------
FAIL_DEADLINE = "deadline-exceeded"  # == repro.engine.faults.REASON_DEADLINE
FAIL_CANCELLED = "cancelled"
FAIL_DISCONNECT = "disconnect"
FAIL_SOLVER_ERROR = "solver-error"
FAIL_INTERNAL = "internal-error"

# -- dedup provenance on result events ---------------------------------
DEDUP_FRESH = "fresh"
DEDUP_COALESCED = "coalesced"
DEDUP_CACHED = "cached"
DEDUP_REPLAYED = "replayed"


class ProtocolError(ValueError):
    """Raised when a client line cannot be parsed into a valid message."""


def _require_id(data: Mapping[str, Any]) -> str:
    request_id = data.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError(f"op {data.get('op')!r} requires a non-empty string 'id'")
    return request_id


def parse_client_line(line: str) -> Dict[str, Any]:
    """Parse and validate one client JSONL line into a message dict.

    Raises :class:`ProtocolError` for anything malformed; the transport
    answers those with a ``bad-request`` rejection rather than dying.
    """
    try:
        data = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as error:
        raise ProtocolError(f"not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise ProtocolError("a client message must be a JSON object")
    op = data.get("op")
    if op not in CLIENT_OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {CLIENT_OPS}")
    if op == OP_SOLVE:
        _require_id(data)
        if not isinstance(data.get("request"), dict):
            raise ProtocolError("op 'solve' requires a 'request' object")
        deadline = data.get("deadline")
        if deadline is not None:
            if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
                raise ProtocolError("'deadline' must be a number of seconds")
            if not math.isfinite(deadline) or deadline <= 0:
                raise ProtocolError(f"'deadline' must be positive and finite, got {deadline}")
    elif op in (OP_ACK, OP_CANCEL):
        _require_id(data)
    return dict(data)


def encode_message(message: Mapping[str, Any]) -> str:
    """One compact JSONL line (no trailing newline) for a server message."""
    return json.dumps(dict(message), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Server message builders
# ----------------------------------------------------------------------
def hello_message(max_inflight: int, queue_limit: int) -> Dict[str, Any]:
    """The connect-time banner carrying the admission limits."""
    return {
        "event": EVENT_HELLO,
        "protocol": PROTOCOL_VERSION,
        "max_inflight": max_inflight,
        "queue_limit": queue_limit,
    }


def accepted_message(
    request_id: str, fingerprint: str, queue_depth: int
) -> Dict[str, Any]:
    """Admission granted; ``queue_depth`` is the backpressure signal."""
    return {
        "event": EVENT_ACCEPTED,
        "id": request_id,
        "fingerprint": fingerprint,
        "queue_depth": queue_depth,
    }


def rejected_message(
    request_id: str, reason: str, queue_depth: int = 0, error: str = ""
) -> Dict[str, Any]:
    """Admission refused (overloaded / bad-request / duplicate-id / ...)."""
    message: Dict[str, Any] = {
        "event": EVENT_REJECTED,
        "id": request_id,
        "reason": reason,
        "queue_depth": queue_depth,
    }
    if error:
        message["error"] = error
    return message


def result_message(
    request_id: str,
    fingerprint: str,
    result: Mapping[str, Any],
    dedup: str = DEDUP_FRESH,
) -> Dict[str, Any]:
    """A settled solve: the result's ``to_dict`` form plus dedup provenance."""
    return {
        "event": EVENT_RESULT,
        "id": request_id,
        "fingerprint": fingerprint,
        "dedup": dedup,
        "result": dict(result),
    }


def failed_message(request_id: str, reason: str, error: str = "") -> Dict[str, Any]:
    """A request that settled without a result."""
    message: Dict[str, Any] = {
        "event": EVENT_FAILED,
        "id": request_id,
        "reason": reason,
    }
    if error:
        message["error"] = error
    return message


def stats_message(stats: Mapping[str, Any]) -> Dict[str, Any]:
    """A supervisor statistics snapshot."""
    return {"event": EVENT_STATS, "stats": dict(stats)}


def bye_message(served: int) -> Dict[str, Any]:
    """The drain-complete farewell."""
    return {"event": EVENT_BYE, "served": served}


# ----------------------------------------------------------------------
# Result identity
# ----------------------------------------------------------------------
def canonical_result_dict(result: Mapping[str, Any]) -> Dict[str, Any]:
    """A result dict with the operational provenance stripped.

    ``wall_time`` (excluded from :class:`ScheduleResult` equality) and the
    ``recovery_events`` metadata note (written by the engine's recovery
    ladder when a run survived injected faults) are the only fields that
    legitimately vary between identical solves -- they describe *how* the
    solve went, not *what* it answered.  The byte-identity contract
    (chaos harness, journal replay proofs) compares this canonical form.
    """
    canonical = dict(result)
    canonical["wall_time"] = 0.0
    metadata = dict(canonical.get("metadata") or {})
    metadata.pop("recovery_events", None)
    canonical["metadata"] = metadata
    return canonical


def result_fingerprint(result: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical (wall-time-free) result JSON."""
    payload = json.dumps(
        canonical_result_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


__all__ = [
    "CLIENT_OPS",
    "DEDUP_CACHED",
    "DEDUP_COALESCED",
    "DEDUP_FRESH",
    "DEDUP_REPLAYED",
    "EVENT_ACCEPTED",
    "EVENT_BYE",
    "EVENT_FAILED",
    "EVENT_HELLO",
    "EVENT_REJECTED",
    "EVENT_RESULT",
    "EVENT_STATS",
    "FAIL_CANCELLED",
    "FAIL_DEADLINE",
    "FAIL_DISCONNECT",
    "FAIL_INTERNAL",
    "FAIL_SOLVER_ERROR",
    "OP_ACK",
    "OP_CANCEL",
    "OP_SHUTDOWN",
    "OP_SOLVE",
    "OP_STATS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REJECT_BAD_REQUEST",
    "REJECT_DUPLICATE_ID",
    "REJECT_OVERLOADED",
    "REJECT_SHUTTING_DOWN",
    "accepted_message",
    "bye_message",
    "canonical_result_dict",
    "encode_message",
    "failed_message",
    "hello_message",
    "parse_client_line",
    "rejected_message",
    "result_fingerprint",
    "result_message",
    "stats_message",
]
