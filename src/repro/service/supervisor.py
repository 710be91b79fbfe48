"""The service supervisor: admission, backpressure, deadlines, recovery.

A :class:`Supervisor` is the long-lived core behind ``repro serve``.  It
owns one session-scoped solve path (a :class:`~repro.solvers.Session`,
optionally backed by a dedicated
:class:`~repro.engine.executor.FlatExecutor` for fault injection) and a
small pool of worker *threads* that drain a bounded accept queue:

* **admission control** -- at most ``queue_limit`` requests wait at any
  time; beyond that, ``solve`` ops are rejected ``overloaded`` instead
  of buffering without bound.  Every accepted/rejected reply carries the
  current queue depth so clients see backpressure explicitly.
* **deadlines and cancellation** -- each request gets a
  :class:`~repro.engine.faults.CancelToken` (deadline-armed when the
  client asked for one).  The token is installed as the ambient cancel
  scope around the solve, so the scheduler's event loop and the
  executor's dispatch loop abandon the run mid-flight -- the PR 9
  incumbent-board abort cadence -- instead of finishing doomed work.
  Client disconnects cancel all of that client's tickets the same way.
* **dedup + coalescing** -- requests are keyed by
  :meth:`ScheduleRequest.fingerprint`; an identical request arriving
  while one is in flight attaches as a *follower* of the running
  *primary* (one executor fan-out serves all of them), and settled
  results are served from a bounded LRU cache afterwards.
* **write-ahead journal** -- every transition is journalled *before* it
  is acted on (:mod:`repro.service.journal`), which is what makes a
  killed-and-restarted supervisor recover: completed-but-unacked results
  re-serve verbatim, unsettled requests re-run deterministically.

Threading model: ``submit``/``cancel``/``ack``/``disconnect`` may be
called from any thread; all mutable state is guarded by one lock, and
solves happen outside it.  Solves that fan out into the process pool are
additionally serialised by a solve lock (the flat executor is not
re-entrant); in-thread serial solves run concurrently under the GIL.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Set

from repro.engine.executor import FlatExecutor, use_executor
from repro.engine.faults import (
    CancelledSolve,
    CancelToken,
    cancel_scope,
    format_error,
)
from repro.service import protocol
from repro.service.journal import (
    KIND_ACCEPTED,
    KIND_ACKED,
    KIND_COMPLETED,
    KIND_FAILED,
    KIND_STARTED,
    EventJournal,
    ReplayPlan,
    replay,
)
from repro.solvers import ScheduleRequest, ScheduleResult, Session, SolverError

#: A transport-provided delivery callable: takes one server message dict.
#: Must be safe to call from supervisor worker threads.
Reply = Callable[[Dict[str, Any]], None]


def _null_reply(message: Dict[str, Any]) -> None:
    """Delivery sink of disconnected clients: drop the message."""


class SupervisorError(RuntimeError):
    """Raised for supervisor lifecycle misuse (e.g. submit after close)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one supervisor.

    ``max_inflight`` is the worker-thread count (requests being solved at
    once); ``queue_limit`` bounds the accept queue (admission control);
    ``default_deadline`` applies to requests that name none (``None`` =
    unbounded); ``dedup_cache_size`` bounds the fingerprint->result LRU;
    ``workers`` is the per-solve process fan-out handed to the session
    (0 = in-thread serial solves, fully cancellable); ``journal_path``
    enables the write-ahead journal (``None`` = in-memory only);
    ``fsync`` syncs every journal record to disk.
    """

    max_inflight: int = 2
    queue_limit: int = 8
    default_deadline: Optional[float] = None
    dedup_cache_size: int = 128
    workers: int = 0
    journal_path: Optional[Path] = None
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise SupervisorError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.queue_limit < 1:
            raise SupervisorError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise SupervisorError(
                f"default_deadline must be positive, got {self.default_deadline}"
            )
        if self.dedup_cache_size < 0:
            raise SupervisorError(
                f"dedup_cache_size must be >= 0, got {self.dedup_cache_size}"
            )
        if self.workers < 0:
            raise SupervisorError(f"workers must be >= 0, got {self.workers}")


class _Ticket:
    """One admitted request travelling through the supervisor."""

    __slots__ = (
        "request_id",
        "client",
        "request",
        "fingerprint",
        "reply",
        "token",
        "followers",
        "dedup",
    )

    def __init__(
        self,
        request_id: str,
        client: str,
        request: ScheduleRequest,
        fingerprint: str,
        reply: Reply,
        token: CancelToken,
        dedup: str = protocol.DEDUP_FRESH,
    ) -> None:
        self.request_id = request_id
        self.client = client
        self.request = request
        self.fingerprint = fingerprint
        self.reply = reply
        self.token = token
        self.followers: List["_Ticket"] = []
        self.dedup = dedup


class Supervisor:
    """Supervised scheduling service core (transport-agnostic)."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        session: Optional[Session] = None,
        executor: Optional[FlatExecutor] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._session = (
            session if session is not None else Session(workers=self.config.workers)
        )
        self._executor = executor
        self._stack = contextlib.ExitStack()
        self._lock = threading.RLock()
        self._solve_lock = threading.Lock()  # the flat executor is not re-entrant
        self._queue: "queue.Queue[Optional[_Ticket]]" = queue.Queue()
        self._tickets: Dict[str, _Ticket] = {}
        self._primaries: Dict[str, _Ticket] = {}
        self._cache: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._seen_ids: Set[str] = set()
        self._completed_ids: Set[str] = set()
        self._queued = 0
        self._inflight = 0
        self._max_queue_depth = 0
        self._counters: Dict[str, int] = {}
        self._accepting = False
        self._crashed = False
        self._closed = False
        self._started = False
        self._threads: List[threading.Thread] = []
        self._replay_plan: Optional[ReplayPlan] = None
        self._journal = self._open_journal()
        #: Test/chaos hook: called (with the ticket) after the ``started``
        #: record is journalled, immediately before the solve.
        self.started_hook: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _open_journal(self) -> EventJournal:
        """Open the write-ahead journal, replaying any existing file."""
        path = self.config.journal_path
        self._replay_plan = None
        if path is None:
            return EventJournal(None, fsync=self.config.fsync)
        if Path(path).exists():
            plan = replay(EventJournal.load(Path(path)))
            self._replay_plan = plan
            self._seen_ids.update(plan.seen_ids)
            self._completed_ids.update(plan.completed_ids)
            for fingerprint, result in plan.cache.items():
                self._cache_store(fingerprint, dict(result))
            return EventJournal(
                Path(path), fsync=self.config.fsync, start_seq=plan.next_seq
            )
        return EventJournal(Path(path), fsync=self.config.fsync)

    def start(self, replay_reply: Optional[Reply] = None) -> "Supervisor":
        """Spawn workers; re-serve and re-enqueue journalled work first.

        ``replay_reply`` receives the recovery traffic of a pre-existing
        journal: every completed-but-unacked result (verbatim, marked
        ``dedup=replayed``) and, later, the results of re-run unsettled
        requests as they settle.
        """
        if self._started:
            raise SupervisorError("supervisor already started")
        self._started = True
        self._accepting = True
        if self._executor is not None:
            self._stack.enter_context(use_executor(self._executor))
        sink = replay_reply if replay_reply is not None else _null_reply
        plan = self._replay_plan
        if plan is not None:
            for record in plan.completed_unacked:
                result = record.payload.get("result")
                if isinstance(result, dict):
                    self._record("replayed")
                    self._record("served")
                    sink(
                        protocol.result_message(
                            record.request_id,
                            record.fingerprint,
                            result,
                            dedup=protocol.DEDUP_REPLAYED,
                        )
                    )
            for record in plan.pending:
                request_payload = record.payload.get("request")
                if not isinstance(request_payload, dict):
                    continue
                deadline = record.payload.get("deadline")
                ticket = _Ticket(
                    request_id=record.request_id,
                    client=str(record.payload.get("client", "")),
                    request=ScheduleRequest.from_dict(request_payload),
                    fingerprint=record.fingerprint,
                    reply=sink,
                    token=CancelToken.after(
                        float(deadline) if deadline is not None else None
                    ),
                )
                with self._lock:
                    self._tickets[ticket.request_id] = ticket
                    self._queued += 1
                    self._record("recovered")
                self._queue.put(ticket)
        for index in range(self.config.max_inflight):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop accepting, wait for in-flight + queued work to settle."""
        with self._lock:
            self._accepting = False
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with self._lock:
                idle = self._queued == 0 and self._inflight == 0
            if idle:
                return True
            time.sleep(0.005)
        return False

    def close(self) -> None:
        """Drain-free teardown: stop workers, close journal, release pools.

        Idempotent.  After close the process holds zero supervisor-owned
        pool processes: the dedicated executor
        (if any) is closed by unwinding its ``use_executor`` scope, and
        ``Session.close`` tears down the process-default pool.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._accepting = False
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._journal.close()
        self._stack.close()
        self._session.close()

    def crash_for_test(self) -> None:
        """Simulate a SIGKILL: stop journalling and delivering instantly.

        From this call on the supervisor behaves like a dead process:
        no further journal records are written (whatever the write-ahead
        discipline already persisted is all a restarted supervisor gets),
        no further replies reach clients, and in-flight solves are
        abandoned via their cancel tokens.  Follow with :meth:`close` to
        reap the threads, then build a fresh supervisor on the same
        journal path to exercise recovery.
        """
        with self._lock:
            self._crashed = True
            self._accepting = False
            for ticket in self._tickets.values():
                ticket.token.cancel(protocol.FAIL_INTERNAL)

    # ------------------------------------------------------------------
    # Client operations (transport entry points; thread-safe)
    # ------------------------------------------------------------------
    def process(
        self, message: Mapping[str, Any], reply: Reply, client: str = ""
    ) -> bool:
        """Dispatch one parsed client message; False ends the connection."""
        op = message.get("op")
        if op == protocol.OP_SOLVE:
            try:
                request = ScheduleRequest.from_dict(message["request"])
            except Exception as error:  # ill-formed payloads are client bugs
                self._reject(
                    str(message.get("id", "")),
                    protocol.REJECT_BAD_REQUEST,
                    reply,
                    error=format_error(error),
                )
                return True
            deadline = message.get("deadline")
            self.submit(
                str(message["id"]),
                request,
                reply,
                client=client,
                deadline=float(deadline) if deadline is not None else None,
            )
            return True
        if op == protocol.OP_ACK:
            self.ack(str(message["id"]))
            return True
        if op == protocol.OP_CANCEL:
            self.cancel(str(message["id"]))
            return True
        if op == protocol.OP_STATS:
            reply(protocol.stats_message(self.stats()))
            return True
        return False  # OP_SHUTDOWN: the transport drains and says bye

    def submit(
        self,
        request_id: str,
        request: ScheduleRequest,
        reply: Reply,
        client: str = "",
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Admission control: accept into the bounded queue or reject.

        Returns (and delivers through ``reply``) the accepted/rejected
        message.  Acceptance journals the full request payload *before*
        the ticket enters the queue -- the write-ahead contract.
        """
        with self._lock:
            if not self._accepting:
                return self._reject(
                    request_id, protocol.REJECT_SHUTTING_DOWN, reply
                )
            if request_id in self._seen_ids:
                return self._reject(request_id, protocol.REJECT_DUPLICATE_ID, reply)
            if self._queued >= self.config.queue_limit:
                self._record("rejected_overloaded")
                return self._reject(request_id, protocol.REJECT_OVERLOADED, reply)
            fingerprint = request.fingerprint()
            budget = deadline if deadline is not None else self.config.default_deadline
            ticket = _Ticket(
                request_id=request_id,
                client=client,
                request=request,
                fingerprint=fingerprint,
                reply=reply,
                token=CancelToken.after(budget),
            )
            self._seen_ids.add(request_id)
            self._tickets[request_id] = ticket
            self._queued += 1
            self._max_queue_depth = max(self._max_queue_depth, self._queued)
            self._record("accepted")
            self._journal.append(
                KIND_ACCEPTED,
                request_id,
                fingerprint=fingerprint,
                payload={
                    "request": request.to_dict(),
                    "deadline": budget,
                    "client": client,
                },
            )
            message = protocol.accepted_message(request_id, fingerprint, self._queued)
        self._queue.put(ticket)
        self._deliver(ticket, message)
        return message

    def ack(self, request_id: str) -> None:
        """Client acknowledgement: retire the result from the replay set."""
        with self._lock:
            if request_id in self._completed_ids and not self._crashed:
                self._record("acked")
                self._journal.append(KIND_ACKED, request_id)

    def cancel(self, request_id: str, reason: str = protocol.FAIL_CANCELLED) -> bool:
        """Cancel a queued or in-flight request (False when unknown)."""
        with self._lock:
            ticket = self._tickets.get(request_id)
            if ticket is None:
                return False
            self._record("cancel_requests")
            ticket.token.cancel(reason)
            return True

    def disconnect(self, client: str) -> int:
        """A client vanished: cancel its tickets, drop its deliveries."""
        with self._lock:
            affected = 0
            for ticket in self._tickets.values():
                if ticket.client == client:
                    ticket.reply = _null_reply
                    ticket.token.cancel(protocol.FAIL_DISCONNECT)
                    affected += 1
            if affected:
                self._record("disconnects")
            return affected

    def stats(self) -> Dict[str, Any]:
        """Statistics snapshot; ``queue_depth`` is the backpressure signal."""
        with self._lock:
            snapshot: Dict[str, Any] = dict(sorted(self._counters.items()))
            snapshot.update(
                {
                    "queue_depth": self._queued,
                    "inflight": self._inflight,
                    "max_queue_depth": self._max_queue_depth,
                    "queue_limit": self.config.queue_limit,
                    "max_inflight": self.config.max_inflight,
                    "dedup_cache_entries": len(self._cache),
                    "journal_records": len(self._journal.records()),
                }
            )
            return snapshot

    @property
    def served(self) -> int:
        """Results delivered so far (fresh, coalesced, cached and replayed)."""
        with self._lock:
            return self._counters.get("served", 0)

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run (workers spawned, replay done)."""
        return self._started

    @property
    def session(self) -> Session:
        """The session this supervisor solves through."""
        return self._session

    # ------------------------------------------------------------------
    # Worker path
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is None:
                return
            self._handle(ticket)

    def _handle(self, ticket: _Ticket) -> None:
        """Drive one dequeued ticket to settlement."""
        with self._lock:
            self._queued -= 1
            if self._crashed:
                self._tickets.pop(ticket.request_id, None)
                return
            if ticket.token.cancelled():
                # Expired or cancelled while queued: settle without solving.
                self._finish_failed(ticket, ticket.token.reason())
                return
            cached = self._cache_load(ticket.fingerprint)
            if cached is not None:
                self._record("dedup_cached")
                self._finish_completed(ticket, cached, protocol.DEDUP_CACHED)
                return
            primary = self._primaries.get(ticket.fingerprint)
            if primary is not None:
                # Coalesce: ride the in-flight solve of an identical
                # request instead of fanning out a second time.
                ticket.dedup = protocol.DEDUP_COALESCED
                primary.followers.append(ticket)
                self._record("dedup_coalesced")
                return
            self._primaries[ticket.fingerprint] = ticket
            self._inflight += 1
            self._journal.append(KIND_STARTED, ticket.request_id)
        hook = self.started_hook
        if hook is not None:
            hook(ticket.request_id)
        self._solve_ticket(ticket)

    def _solve_ticket(self, ticket: _Ticket) -> None:
        """Solve a primary ticket under its ambient cancel scope."""
        effective_workers = int(
            ticket.request.options.get("workers", self.config.workers)
        )
        try:
            with cancel_scope(ticket.token):
                if effective_workers > 0:
                    with self._solve_lock:
                        result = self._session.solve(ticket.request)
                else:
                    result = self._session.solve(ticket.request)
        except CancelledSolve as error:
            self._settle_cancelled(ticket, error.reason)
            return
        except SolverError as error:
            self._settle_failed(
                ticket, protocol.FAIL_SOLVER_ERROR, format_error(error)
            )
            return
        except Exception as error:  # keep the server alive; the journal tells
            self._settle_failed(ticket, protocol.FAIL_INTERNAL, format_error(error))
            return
        self._settle_completed(ticket, result)

    # ------------------------------------------------------------------
    # Settlement (journal + deliver for a primary and its followers)
    # ------------------------------------------------------------------
    def _settle_completed(self, primary: _Ticket, result: ScheduleResult) -> None:
        result_dict = result.to_dict()
        with self._lock:
            self._primaries.pop(primary.fingerprint, None)
            self._inflight -= 1
            if self._crashed:
                return
            self._cache_store(primary.fingerprint, result_dict)
            for member in [primary] + primary.followers:
                if member.token.cancelled():
                    # The result exists but this member's contract (its
                    # deadline, its cancel, its connection) already died.
                    self._finish_failed(member, member.token.reason())
                else:
                    self._finish_completed(member, result_dict, member.dedup)

    def _settle_cancelled(self, primary: _Ticket, reason: str) -> None:
        """The solve was abandoned mid-flight via the primary's token."""
        with self._lock:
            self._primaries.pop(primary.fingerprint, None)
            self._inflight -= 1
            if self._crashed:
                return
            self._finish_failed(primary, reason)
            for follower in primary.followers:
                if follower.token.cancelled():
                    self._finish_failed(follower, follower.token.reason())
                else:
                    # The follower's own contract is still live: it only
                    # lost its ride.  Re-dispatch it as a fresh primary.
                    follower.dedup = protocol.DEDUP_FRESH
                    self._queued += 1
                    self._record("redispatched")
                    self._queue.put(follower)

    def _settle_failed(self, primary: _Ticket, reason: str, error: str) -> None:
        """The solve raised: fail the primary and every follower."""
        with self._lock:
            self._primaries.pop(primary.fingerprint, None)
            self._inflight -= 1
            if self._crashed:
                return
            for member in [primary] + primary.followers:
                self._finish_failed(member, reason, error)

    def _finish_completed(
        self, ticket: _Ticket, result_dict: Dict[str, Any], dedup: str
    ) -> None:
        """Journal + deliver one member's result (caller holds the lock)."""
        self._tickets.pop(ticket.request_id, None)
        self._completed_ids.add(ticket.request_id)
        self._record("completed")
        self._record("served")
        self._journal.append(
            KIND_COMPLETED,
            ticket.request_id,
            fingerprint=ticket.fingerprint,
            payload={"result": result_dict, "dedup": dedup},
        )
        self._deliver(
            ticket,
            protocol.result_message(
                ticket.request_id, ticket.fingerprint, result_dict, dedup=dedup
            ),
        )

    def _finish_failed(self, ticket: _Ticket, reason: str, error: str = "") -> None:
        """Journal + deliver one member's failure (caller holds the lock)."""
        self._tickets.pop(ticket.request_id, None)
        self._record("failed")
        if reason == protocol.FAIL_DEADLINE:
            self._record("deadline_expired")
        self._journal.append(
            KIND_FAILED,
            ticket.request_id,
            fingerprint=ticket.fingerprint,
            payload={"reason": reason, "error": error},
        )
        self._deliver(
            ticket, protocol.failed_message(ticket.request_id, reason, error=error)
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reject(
        self, request_id: str, reason: str, reply: Reply, error: str = ""
    ) -> Dict[str, Any]:
        with self._lock:
            self._record("rejected")
            message = protocol.rejected_message(
                request_id, reason, queue_depth=self._queued, error=error
            )
        try:
            reply(message)
        except Exception:  # a dead reply sink cannot reject any harder
            self._record("delivery_failures")
        return message

    def _deliver(self, ticket: _Ticket, message: Dict[str, Any]) -> None:
        """Push one message to a ticket's client, absorbing sink failures."""
        if self._crashed:
            return
        try:
            ticket.reply(message)
        except Exception:
            # A broken reply sink is a disconnect observed late: record
            # it and cancel whatever else that client has in flight.
            self._record("delivery_failures")
            if ticket.client:
                self.disconnect(ticket.client)

    def _record(self, counter: str) -> None:
        self._counters[counter] = self._counters.get(counter, 0) + 1

    def _cache_store(self, fingerprint: str, result_dict: Dict[str, Any]) -> None:
        if self.config.dedup_cache_size <= 0:
            return
        self._cache[fingerprint] = result_dict
        self._cache.move_to_end(fingerprint)
        while len(self._cache) > self.config.dedup_cache_size:
            self._cache.popitem(last=False)

    def _cache_load(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        cached = self._cache.get(fingerprint)
        if cached is not None:
            self._cache.move_to_end(fingerprint)
        return cached

    def __enter__(self) -> "Supervisor":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = [
    "Reply",
    "ServiceConfig",
    "Supervisor",
    "SupervisorError",
]
