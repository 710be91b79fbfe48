"""Structured failure vocabulary and deterministic fault injection.

This module defines the fault-tolerance contract of the flat executor
(:mod:`repro.engine.executor`):

* :class:`FailureRecord` -- one structured journal entry per observed
  failure (a task exception, a stalled/broken pool, a failed pool
  creation), carrying the task fingerprint, the attempt number and the
  recovery action taken.  The executor accumulates them into the *fault
  journal* surfaced on :class:`~repro.engine.results.ExecutorStats`.
* :class:`RecoveryEvent` -- one step down the ordered *recovery ladder*
  ``parallel -> resurrected -> quarantined -> serial``.  A clean parallel
  run has no events; every event records a transition the run had to take
  to keep producing bit-identical results.
* :class:`FaultPlan` -- a deterministic fault-injection schedule: worker
  kills, task exceptions, task hangs and pool-creation failures keyed on
  *task fingerprints* and *attempt numbers* (never wall-clock or ambient
  randomness -- REP002-clean), so a chaos run is exactly reproducible.
  Plans load from JSON (``repro chaos --plan``) or from the
  ``REPRO_FAULT_PLAN`` environment variable (inline JSON or a file path).
* :func:`backoff_delay` -- the bounded deterministic exponential backoff
  used between task retries.  The per-task spread is derived from a CRC32
  of the task fingerprint, not from a random source, so two runs of the
  same plan sleep identically.
* :class:`CancelToken` / :func:`cancel_scope` -- cooperative mid-run
  cancellation (PR 10).  The scheduling service arms a token per request
  (client disconnects, per-request deadlines) and installs it as the
  calling thread's ambient *cancel scope*; the scheduler's event loop and
  the executor's dispatch loop poll the ambient token and abandon the run
  with :class:`CancelledSolve`, so a cancelled engine run drops its
  in-flight worker tasks instead of finishing them.  Deadlines are
  measured with ``time.perf_counter`` (monotonic; REP002-clean).

Everything here is dependency-free (stdlib only) and import-cycle-free:
``repro.core.grid_sweep`` and ``repro.engine.results`` both import it.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

#: Environment variable naming a fault plan: inline JSON or a file path.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: The ordered recovery ladder.  ``parallel`` is the implicit baseline
#: stage of every pooled run; the executor appends an event each time it
#: steps *down* the ladder to keep the run alive.
STAGE_PARALLEL = "parallel"
STAGE_RESURRECTED = "resurrected"
STAGE_QUARANTINED = "quarantined"
STAGE_SERIAL = "serial"
RECOVERY_LADDER: Tuple[str, ...] = (
    STAGE_PARALLEL,
    STAGE_RESURRECTED,
    STAGE_QUARANTINED,
    STAGE_SERIAL,
)

#: Fault kinds a plan may inject.
FAULT_KILL = "kill"
FAULT_EXCEPTION = "exception"
FAULT_HANG = "hang"
FAULT_POOL = "pool"
FAULT_KINDS: Tuple[str, ...] = (FAULT_KILL, FAULT_EXCEPTION, FAULT_HANG, FAULT_POOL)

#: Exit code of a worker killed by a ``kill`` action (aids post-mortems).
KILL_EXIT_CODE = 86


class FaultPlanError(ValueError):
    """Raised when a fault plan cannot be parsed or is ill-formed."""


class InjectedFault(RuntimeError):
    """The exception an ``exception`` fault action raises inside a worker.

    Deliberately a plain single-argument ``RuntimeError`` subclass so it
    pickles cleanly across the result pipe.
    """


# ----------------------------------------------------------------------
# Failure journal entries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailureRecord:
    """One observed failure and the recovery action taken.

    ``kind`` classifies what failed (``task-error``, ``pool-stall``,
    ``pool-death``, ``pool-creation``, ``fatal``);
    ``task`` is the fingerprint of the implicated task (empty for
    pool-level failures); ``attempt`` the 1-based attempt that failed
    (0 when not task-scoped); ``error`` the formatted exception; and
    ``action`` what the executor did about it (``retry``, ``resurrect``,
    ``quarantine``, ``serial``, ``continue``, ``raise``).
    """

    kind: str
    task: str = ""
    attempt: int = 0
    error: str = ""
    action: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly form (the fault-journal wire shape)."""
        return {
            "kind": self.kind,
            "task": self.task,
            "attempt": self.attempt,
            "error": self.error,
            "action": self.action,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            kind=str(data.get("kind", "")),
            task=str(data.get("task", "")),
            attempt=int(data.get("attempt", 0)),
            error=str(data.get("error", "")),
            action=str(data.get("action", "")),
        )

    def render(self) -> str:
        """One-line human-readable form for logs and CLI output."""
        scope = f" task={self.task} attempt={self.attempt}" if self.task else ""
        detail = f" ({self.error})" if self.error else ""
        return f"{self.kind}{scope} -> {self.action}{detail}"


def format_error(error: BaseException) -> str:
    """The canonical ``Type: message`` rendering used in failure records."""
    message = str(error)
    name = type(error).__name__
    return f"{name}: {message}" if message else name


# ----------------------------------------------------------------------
# Recovery ladder events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryEvent:
    """One downward step on the recovery ladder.

    ``stage`` is one of :data:`RECOVERY_LADDER` (never ``parallel`` --
    the baseline is implicit); ``reason`` a short slug for what forced
    the step (``stalled``, ``pool-death``, ``pool-creation``); ``task``
    the fingerprint of the implicated task when the step is task-scoped
    (quarantine), empty otherwise.
    """

    stage: str
    reason: str
    task: str = ""

    def encode(self) -> str:
        """Compact ``stage:reason[@task]`` form for metadata and CSV."""
        suffix = f"@{self.task}" if self.task else ""
        return f"{self.stage}:{self.reason}{suffix}"

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly form."""
        return {"stage": self.stage, "reason": self.reason, "task": self.task}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RecoveryEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            stage=str(data.get("stage", "")),
            reason=str(data.get("reason", "")),
            task=str(data.get("task", "")),
        )


def encode_recovery_events(events: Sequence[RecoveryEvent]) -> str:
    """The ``>``-joined compact form surfaced in result metadata and CSV."""
    return ">".join(event.encode() for event in events)


def ladder_stage(events: Sequence[RecoveryEvent]) -> str:
    """The deepest ladder stage a run reached (``parallel`` when clean)."""
    deepest = 0
    for event in events:
        if event.stage in RECOVERY_LADDER:
            deepest = max(deepest, RECOVERY_LADDER.index(event.stage))
    return RECOVERY_LADDER[deepest]


# ----------------------------------------------------------------------
# Fault plans (deterministic injection schedules)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultAction:
    """One injection rule of a :class:`FaultPlan`.

    Task-scoped kinds (``kill``/``exception``/``hang``) fire when the
    task fingerprint contains ``match`` (empty matches every task) *and*
    the 1-based attempt number is listed in ``attempts`` -- so a fault
    can be transient (fire on attempt 1 only, succeed on retry) or
    persistent (fire on every listed attempt).  The ``pool`` kind is not
    task-scoped: it fails the next ``count`` pool creations.
    """

    kind: str
    match: str = ""
    attempts: Tuple[int, ...] = (1,)
    count: int = 1
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        attempts = tuple(int(a) for a in self.attempts)
        if any(a < 1 for a in attempts):
            raise FaultPlanError("fault attempts are 1-based; got " + repr(attempts))
        object.__setattr__(self, "attempts", attempts)
        if self.count < 1:
            raise FaultPlanError(f"fault count must be positive, got {self.count}")
        if self.seconds <= 0:
            raise FaultPlanError(f"hang seconds must be positive, got {self.seconds}")

    def applies_to(self, fingerprint: str, attempt: int) -> bool:
        """Whether this (task-scoped) action fires for a task attempt."""
        if self.kind == FAULT_POOL:
            return False
        return self.match in fingerprint and attempt in self.attempts

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly form (the ``--plan`` wire shape)."""
        data: Dict[str, Any] = {"kind": self.kind}
        if self.kind == FAULT_POOL:
            data["count"] = self.count
            return data
        data["match"] = self.match
        data["attempts"] = list(self.attempts)
        if self.kind == FAULT_HANG:
            data["seconds"] = self.seconds
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultAction":
        """Parse one action from its JSON object form."""
        if not isinstance(data, Mapping):
            raise FaultPlanError(f"a fault action must be a JSON object, got {data!r}")
        known = {"kind", "match", "attempts", "count", "seconds"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise FaultPlanError(f"unknown fault action field(s): {', '.join(unknown)}")
        attempts = data.get("attempts", (1,))
        if isinstance(attempts, (int, float)):
            attempts = (int(attempts),)
        return cls(
            kind=str(data.get("kind", "")),
            match=str(data.get("match", "")),
            attempts=tuple(int(a) for a in attempts),
            count=int(data.get("count", 1)),
            seconds=float(data.get("seconds", 3600.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault-injection schedule.

    The plan ships to every pool worker at initializer time; workers
    consult it (via :func:`apply_task_fault`) immediately before running
    each task.  Injection is keyed purely on the task fingerprint and the
    attempt number, so a plan replays identically for any worker count --
    which is exactly what lets the chaos tests assert bit-identical
    schedules under injected faults.
    """

    actions: Tuple[FaultAction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))

    def __bool__(self) -> bool:
        return bool(self.actions)

    def task_action(self, fingerprint: str, attempt: int) -> Optional[FaultAction]:
        """The first task-scoped action firing for this task attempt."""
        for action in self.actions:
            if action.applies_to(fingerprint, attempt):
                return action
        return None

    def pool_failure_budget(self) -> int:
        """How many pool creations this plan wants to fail, in total."""
        return sum(a.count for a in self.actions if a.kind == FAULT_POOL)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly form."""
        return {"faults": [action.to_dict() for action in self.actions]}

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise the plan to its JSON wire form."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Parse a plan from its ``{"faults": [...]}`` object form."""
        if not isinstance(data, Mapping):
            raise FaultPlanError(f"a fault plan must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - {"faults"})
        if unknown:
            raise FaultPlanError(f"unknown fault plan field(s): {', '.join(unknown)}")
        faults = data.get("faults", ())
        if not isinstance(faults, Sequence) or isinstance(faults, (str, bytes)):
            raise FaultPlanError("'faults' must be a JSON array of actions")
        return cls(actions=tuple(FaultAction.from_dict(entry) for entry in faults))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"fault plan is not valid JSON: {error}") from error
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: "os.PathLike[str]") -> "FaultPlan":
        """Load a plan from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULT_PLAN``, or ``None`` when unset.

        The value may be inline JSON (starts with ``{``) or a file path.
        An empty value means no plan.
        """
        value = (environ if environ is not None else os.environ).get(ENV_FAULT_PLAN, "")
        value = value.strip()
        if not value:
            return None
        if value.startswith("{"):
            return cls.from_json(value)
        path = Path(value)
        if not path.exists():
            raise FaultPlanError(
                f"{ENV_FAULT_PLAN}={value!r} is neither inline JSON nor an existing file"
            )
        return cls.from_file(path)


def apply_task_fault(plan: FaultPlan, fingerprint: str, attempt: int) -> None:
    """Worker-side injection hook, called immediately before a task runs.

    ``kill`` hard-exits the worker process (the parent's watchdog detects
    the resulting stall and resurrects the pool); ``hang`` sleeps for the
    action's ``seconds`` (the watchdog deadline fires first in any chaos
    run, and an over-generous deadline merely makes the task slow -- the
    result stays correct either way); ``exception`` raises
    :class:`InjectedFault` (absorbed by the executor's bounded retry).
    """
    action = plan.task_action(fingerprint, attempt)
    if action is None:
        return
    if action.kind == FAULT_KILL:
        os._exit(KILL_EXIT_CODE)
    if action.kind == FAULT_HANG:
        time.sleep(action.seconds)
        return
    raise InjectedFault(
        f"injected fault for task {fingerprint} (attempt {attempt})"
    )


# ----------------------------------------------------------------------
# Deterministic retry backoff
# ----------------------------------------------------------------------
def fingerprint_spread(fingerprint: str) -> float:
    """A stable per-task factor in ``[1.0, 1.16)`` derived from CRC32.

    Replaces the wall-clock/random jitter a conventional backoff would
    use: tasks sharing a pool desynchronise their retries, but the delay
    for a given task is a pure function of its fingerprint (REP002-clean).
    """
    return 1.0 + (zlib.crc32(fingerprint.encode("utf-8")) % 16) / 100.0


def backoff_delay(fingerprint: str, attempt: int, base: float) -> float:
    """Seconds to wait before re-dispatching a failed task.

    Exponential in the attempt number (``base * 2**(attempt-1)``), scaled
    by the task's :func:`fingerprint_spread`.  ``base <= 0`` disables
    backoff entirely (used by tests that only care about identity).
    """
    if base <= 0:
        return 0.0
    return base * (2.0 ** max(0, attempt - 1)) * fingerprint_spread(fingerprint)


# ----------------------------------------------------------------------
# Cooperative cancellation (service layer, PR 10)
# ----------------------------------------------------------------------
#: Reason slug recorded when a token's deadline fires (as opposed to an
#: explicit ``cancel()`` call).
REASON_DEADLINE = "deadline-exceeded"


class CancelledSolve(RuntimeError):
    """A solve was abandoned at a cancellation checkpoint.

    Deliberately *not* a :class:`SchedulerError` subclass: solver shims
    wrap scheduler errors into ``SolverError``, but cancellation must
    propagate raw to whoever armed the token (the service supervisor).
    ``reason`` is a short slug (``deadline-exceeded``, ``disconnect``,
    ``client-cancel``, ...) suitable for journal records.
    """

    def __init__(self, reason: str = "cancelled") -> None:
        super().__init__(reason)
        self.reason = reason


class CancelToken:
    """A thread-safe cooperative cancellation handle with an optional deadline.

    The deadline is an *absolute* ``time.perf_counter`` timestamp
    (monotonic -- REP002-clean); build one from a relative budget with
    :meth:`after`.  Checkpoints call :meth:`raise_if_cancelled`, which is
    one ``Event.is_set`` plus (when a deadline is armed) one
    ``perf_counter`` read -- cheap enough for the scheduler's per-event
    loop.
    """

    __slots__ = ("_event", "_reason", "_deadline")

    def __init__(self, deadline: Optional[float] = None) -> None:
        self._event = threading.Event()
        self._reason = ""
        self._deadline = deadline

    @classmethod
    def after(cls, seconds: Optional[float]) -> "CancelToken":
        """A token whose deadline is ``seconds`` from now (``None`` = never)."""
        if seconds is None:
            return cls()
        return cls(deadline=time.perf_counter() + float(seconds))

    @property
    def deadline(self) -> Optional[float]:
        """The absolute ``perf_counter`` deadline, or ``None``."""
        return self._deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (negative when past), or ``None``."""
        if self._deadline is None:
            return None
        return self._deadline - time.perf_counter()

    def expired(self) -> bool:
        """Whether the deadline (if any) has passed."""
        return self._deadline is not None and time.perf_counter() >= self._deadline

    def cancel(self, reason: str = "cancelled") -> None:
        """Fire the token.  The first reason wins; later calls are no-ops."""
        if not self._event.is_set():
            self._reason = reason or "cancelled"
            self._event.set()

    def cancelled(self) -> bool:
        """Whether the token has fired or its deadline has passed."""
        return self._event.is_set() or self.expired()

    def reason(self) -> str:
        """The cancellation reason slug (empty while the token is live)."""
        if self._event.is_set():
            return self._reason or "cancelled"
        if self.expired():
            return REASON_DEADLINE
        return ""

    def raise_if_cancelled(self) -> None:
        """Checkpoint: raise :class:`CancelledSolve` once the token fires."""
        if self._event.is_set():
            raise CancelledSolve(self._reason or "cancelled")
        if self.expired():
            raise CancelledSolve(REASON_DEADLINE)


#: Per-thread ambient cancel scope.  ``threading.local`` is empty in a
#: freshly forked worker's main thread, so pool workers never inherit a
#: parent-side token.  # repro: fork-local
_CANCEL_SCOPE = threading.local()


def active_cancel_token() -> Optional[CancelToken]:
    """The calling thread's ambient token, or ``None`` outside a scope."""
    token = getattr(_CANCEL_SCOPE, "token", None)
    return token if isinstance(token, CancelToken) else None


@contextlib.contextmanager
def cancel_scope(token: CancelToken) -> Iterator[CancelToken]:
    """Install ``token`` as the calling thread's ambient cancel scope.

    Scopes nest: the previous token (if any) is restored on exit even when
    the body raises.  The scheduler's event loop and the executor's reply
    loop consult :func:`active_cancel_token` at their checkpoints, so any
    solve dispatched inside the scope -- serial or pooled -- aborts
    promptly once the token fires.
    """
    previous = getattr(_CANCEL_SCOPE, "token", None)
    _CANCEL_SCOPE.token = token
    try:
        yield token
    finally:
        _CANCEL_SCOPE.token = previous


def check_cancelled() -> None:
    """Raise :class:`CancelledSolve` if the ambient token (if any) fired."""
    token = active_cancel_token()
    if token is not None:
        token.raise_if_cancelled()


def journal_to_json(
    failures: Iterable[FailureRecord],
    events: Iterable[RecoveryEvent],
    extra: Optional[Mapping[str, Any]] = None,
    indent: int = 2,
) -> str:
    """Serialise a fault journal (records + ladder) for artifact upload."""
    payload: Dict[str, Any] = dict(extra or {})
    event_list = list(events)
    payload["recovery_events"] = [event.to_dict() for event in event_list]
    payload["recovery_stage"] = ladder_stage(event_list)
    payload["failures"] = [record.to_dict() for record in failures]
    return json.dumps(payload, indent=indent)


# Re-exported convenience: the field name modules test against.
__all__ = [
    "ENV_FAULT_PLAN",
    "FAULT_EXCEPTION",
    "FAULT_HANG",
    "FAULT_KILL",
    "FAULT_KINDS",
    "FAULT_POOL",
    "CancelToken",
    "CancelledSolve",
    "FailureRecord",
    "FaultAction",
    "FaultPlan",
    "FaultPlanError",
    "InjectedFault",
    "KILL_EXIT_CODE",
    "REASON_DEADLINE",
    "RECOVERY_LADDER",
    "RecoveryEvent",
    "STAGE_PARALLEL",
    "STAGE_QUARANTINED",
    "STAGE_RESURRECTED",
    "STAGE_SERIAL",
    "active_cancel_token",
    "apply_task_fault",
    "backoff_delay",
    "cancel_scope",
    "check_cancelled",
    "encode_recovery_events",
    "fingerprint_spread",
    "format_error",
    "journal_to_json",
    "ladder_stage",
]
