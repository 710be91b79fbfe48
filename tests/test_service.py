"""Tests for the supervised scheduling service (repro.service).

The contracts pinned here:

* **Protocol.**  Client JSONL lines parse or fail loudly (bad-request,
  never a dead server); result identity is canonical (wall-time-free).
* **Journal.**  Write-ahead records round-trip, a torn final line is
  recovered from, corruption elsewhere refuses to load, and the replay
  fold derives exactly the restart work.
* **Admission + backpressure.**  Bounded queue, ``overloaded`` /
  ``duplicate-id`` / ``shutting-down`` rejections, queue depth on every
  admission reply.
* **Deadlines + cancellation.**  A queued request whose budget expires
  settles ``deadline-exceeded`` without ever starting; an in-flight
  request is abandoned mid-solve; a disconnect cancels a client's work
  and drops its deliveries.
* **Dedup.**  Identical in-flight requests coalesce onto one solve;
  settled results serve from the LRU cache.
* **Crash recovery.**  After a simulated SIGKILL, a fresh supervisor on
  the same journal re-serves completed-but-unacked results *verbatim*
  (wall_time included) and re-runs unsettled requests byte-identically.
* **Lifecycle hardening.**  ``FlatExecutor.close`` / ``Session.close``
  are idempotent and survive a dead pool; ``Supervisor.close`` leaves
  the process-wide pool alone.

Determinism: tests gate the supervisor's worker threads on events via
``started_hook`` (the chaos-harness idiom) instead of sleeping, so the
interleavings are forced, not raced.
"""

import io
import json
import multiprocessing
import os
import threading
import time

import pytest

import repro.engine.executor as executor_module
from repro.engine.executor import FlatExecutor
from repro.engine.jobs import EngineContext, ScheduleJob
from repro.engine.runner import run_jobs
from repro.service import protocol
from repro.service.chaos import run_serve_chaos
from repro.service.journal import (
    KIND_ACCEPTED,
    KIND_ACKED,
    KIND_COMPLETED,
    KIND_FAILED,
    KIND_STARTED,
    EventJournal,
    JournalError,
    JournalRecord,
    replay,
)
from repro.service.supervisor import ServiceConfig, Supervisor, SupervisorError
from repro.service.transport import serve_stream
from repro.soc.benchmarks import get_benchmark
from repro.solvers import ScheduleRequest, Session

SOC = get_benchmark("d695")

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "golden_makespans.json",
)

GATE_TIMEOUT = 30.0


def paper_request(width=16):
    """A millisecond-scale request (the paper solver needs no grid)."""
    return ScheduleRequest(soc=SOC, total_width=width, solver="paper")


class Collector:
    """Thread-safe reply sink recording every delivered server message."""

    def __init__(self):
        self._lock = threading.Lock()
        self._messages = []

    def __call__(self, message):
        with self._lock:
            self._messages.append(dict(message))

    def messages(self, event=None):
        with self._lock:
            snapshot = list(self._messages)
        if event is None:
            return snapshot
        return [message for message in snapshot if message.get("event") == event]

    def results(self):
        return {
            message["id"]: dict(message["result"])
            for message in self.messages(protocol.EVENT_RESULT)
        }


class Gate:
    """Holds the first solve at its ``started`` hook until released."""

    def __init__(self):
        self._lock = threading.Lock()
        self._calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, request_id):
        with self._lock:
            self._calls += 1
            first = self._calls == 1
        if first:
            self.entered.set()
            self.release.wait(timeout=GATE_TIMEOUT)


def journal_kinds(supervisor, request_id):
    """The journalled transition kinds of one request, in order."""
    return [
        record.kind
        for record in supervisor._journal.records()
        if record.request_id == request_id
    ]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    """Client line validation and canonical result identity."""

    def test_parse_valid_solve(self):
        request = paper_request()
        line = (
            '{"op": "solve", "id": "r1", "request": '
            + protocol.encode_message(request.to_dict())
            + ', "deadline": 2.5}'
        )
        message = protocol.parse_client_line(line)
        assert message["op"] == protocol.OP_SOLVE
        assert message["id"] == "r1"
        assert message["deadline"] == 2.5
        rebuilt = ScheduleRequest.from_dict(message["request"])
        assert rebuilt.fingerprint() == request.fingerprint()

    @pytest.mark.parametrize(
        "line, match",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "JSON object"),
            ('{"op": "fly"}', "unknown op"),
            ('{"op": "solve", "request": {}}', "requires a non-empty string 'id'"),
            ('{"op": "solve", "id": "r1"}', "requires a 'request' object"),
            (
                '{"op": "solve", "id": "r1", "request": {}, "deadline": -1}',
                "must be positive",
            ),
            (
                '{"op": "solve", "id": "r1", "request": {}, "deadline": NaN}',
                "must be positive",
            ),
            (
                '{"op": "solve", "id": "r1", "request": {}, "deadline": Infinity}',
                "must be positive",
            ),
            (
                '{"op": "solve", "id": "r1", "request": {}, "deadline": true}',
                "must be a number",
            ),
            ('{"op": "ack"}', "requires a non-empty string 'id'"),
            ('{"op": "cancel", "id": ""}', "requires a non-empty string 'id'"),
        ],
    )
    def test_parse_rejects_malformed_lines(self, line, match):
        with pytest.raises(protocol.ProtocolError, match=match):
            protocol.parse_client_line(line)

    def test_canonical_result_strips_operational_provenance_only(self):
        result = {
            "makespan": 41,
            "wall_time": 1.25,
            "metadata": {"solver": "paper", "recovery_events": "resurrected:stalled"},
        }
        canonical = protocol.canonical_result_dict(result)
        assert canonical["wall_time"] == 0.0
        assert canonical["metadata"] == {"solver": "paper"}
        assert canonical["makespan"] == 41
        assert result["wall_time"] == 1.25  # input untouched

    def test_result_fingerprint_ignores_wall_time_and_recovery_events(self):
        base = {"makespan": 41, "wall_time": 0.5, "metadata": {}}
        noisy = {
            "makespan": 41,
            "wall_time": 9.0,
            "metadata": {"recovery_events": "resurrected:stalled"},
        }
        different = {"makespan": 42, "wall_time": 0.5, "metadata": {}}
        assert protocol.result_fingerprint(base) == protocol.result_fingerprint(noisy)
        assert protocol.result_fingerprint(base) != protocol.result_fingerprint(
            different
        )


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJournal:
    """Write-ahead records: round-trip, torn-line recovery, replay fold."""

    def test_record_round_trip_and_unknown_kind(self):
        record = JournalRecord(
            seq=3, kind=KIND_COMPLETED, request_id="r1",
            fingerprint="abc", payload={"result": {"makespan": 41}},
        )
        assert JournalRecord.from_dict(record.to_dict()) == record
        with pytest.raises(JournalError, match="unknown journal record kind"):
            JournalRecord(seq=1, kind="exploded", request_id="r1")

    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = EventJournal(path)
        journal.append(KIND_ACCEPTED, "r1", fingerprint="f1", payload={"deadline": 2.0})
        journal.append(KIND_STARTED, "r1")
        journal.close()
        journal.close()  # idempotent
        records = EventJournal.load(path)
        assert [record.seq for record in records] == [1, 2]
        assert records[0].payload == {"deadline": 2.0}

    def test_torn_final_line_recovers_corrupt_middle_refuses(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = EventJournal(path)
        journal.append(KIND_ACCEPTED, "r1")
        journal.append(KIND_STARTED, "r1")
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "kind": "comp')  # the write a SIGKILL tore
        records = EventJournal.load(path)
        assert [record.kind for record in records] == [KIND_ACCEPTED, KIND_STARTED]

        lines = path.read_text().splitlines()
        lines[0] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt journal line 1"):
            EventJournal.load(path)

    def test_start_seq_continues_across_restart(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = EventJournal(path)
        first.append(KIND_ACCEPTED, "r1")
        first.close()
        second = EventJournal(path, start_seq=replay(EventJournal.load(path)).next_seq)
        record = second.append(KIND_STARTED, "r1")
        second.close()
        assert record.seq == 2

    def test_replay_fold_derives_restart_work(self):
        result = {"makespan": 41}
        records = [
            JournalRecord(1, KIND_ACCEPTED, "done", "f1", {"request": {}}),
            JournalRecord(2, KIND_STARTED, "done"),
            JournalRecord(3, KIND_COMPLETED, "done", "f1", {"result": result}),
            JournalRecord(4, KIND_ACKED, "done"),
            JournalRecord(5, KIND_ACCEPTED, "unacked", "f2", {"request": {}}),
            JournalRecord(6, KIND_COMPLETED, "unacked", "f2", {"result": result}),
            JournalRecord(7, KIND_ACCEPTED, "lost", "f3", {"request": {}}),
            JournalRecord(8, KIND_STARTED, "lost"),
            JournalRecord(9, KIND_ACCEPTED, "dead", "f4", {"request": {}}),
            JournalRecord(10, KIND_FAILED, "dead", "f4", {"reason": "cancelled"}),
        ]
        plan = replay(records)
        assert [record.request_id for record in plan.pending] == ["lost"]
        assert [record.request_id for record in plan.completed_unacked] == ["unacked"]
        assert set(plan.cache) == {"f1", "f2"}
        assert plan.seen_ids == ("done", "unacked", "lost", "dead")
        assert plan.completed_ids == ("done", "unacked")
        assert plan.next_seq == 10


# ----------------------------------------------------------------------
# Admission control + backpressure
# ----------------------------------------------------------------------
class TestAdmission:
    """Bounded queue, explicit rejections, queue depth on every reply."""

    def test_config_validation(self):
        with pytest.raises(SupervisorError, match="max_inflight"):
            ServiceConfig(max_inflight=0)
        with pytest.raises(SupervisorError, match="queue_limit"):
            ServiceConfig(queue_limit=0)
        with pytest.raises(SupervisorError, match="default_deadline"):
            ServiceConfig(default_deadline=0.0)
        with pytest.raises(SupervisorError, match="workers"):
            ServiceConfig(workers=-1)

    def test_accept_solves_and_acks(self):
        collector = Collector()
        with Supervisor(config=ServiceConfig(max_inflight=1)) as supervisor:
            message = supervisor.submit("r1", paper_request(), collector)
            assert message["event"] == protocol.EVENT_ACCEPTED
            assert message["fingerprint"] == paper_request().fingerprint()
            assert message["queue_depth"] >= 1
            assert supervisor.drain(timeout=GATE_TIMEOUT)
            supervisor.ack("r1")
            supervisor.ack("never-seen")  # unknown ids are ignored
            assert journal_kinds(supervisor, "r1") == [
                KIND_ACCEPTED, KIND_STARTED, KIND_COMPLETED, KIND_ACKED,
            ]
        results = collector.results()
        assert set(results) == {"r1"}
        assert results["r1"]["solver"] == "paper"
        assert collector.messages(protocol.EVENT_RESULT)[0]["dedup"] == (
            protocol.DEDUP_FRESH
        )

    def test_configured_workers_start_no_process(self):
        # ``ServiceConfig.workers`` is still accepted, but every service
        # solve runs in its worker thread: a ``best`` solve starts no child
        # process and returns the batch result.
        request = ScheduleRequest(soc=SOC, total_width=32, solver="best")
        children = {child.pid for child in multiprocessing.active_children()}
        collector = Collector()
        with Supervisor(config=ServiceConfig(workers=2)) as supervisor:
            supervisor.submit("r1", request, collector)
            assert supervisor.drain(timeout=GATE_TIMEOUT)
            assert {
                child.pid for child in multiprocessing.active_children()
            } <= children
        batch = Session().solve(request)
        assert collector.results()["r1"]["makespan"] == batch.makespan

    def test_duplicate_id_rejected(self):
        collector = Collector()
        with Supervisor() as supervisor:
            supervisor.submit("r1", paper_request(), collector)
            message = supervisor.submit("r1", paper_request(16), collector)
            assert message["event"] == protocol.EVENT_REJECTED
            assert message["reason"] == protocol.REJECT_DUPLICATE_ID
            supervisor.drain(timeout=GATE_TIMEOUT)

    def test_overload_rejection_reports_queue_depth(self):
        gate = Gate()
        collector = Collector()
        config = ServiceConfig(max_inflight=1, queue_limit=1)
        supervisor = Supervisor(config=config)
        supervisor.started_hook = gate
        try:
            supervisor.start()
            supervisor.submit("g0", paper_request(), collector)
            assert gate.entered.wait(timeout=GATE_TIMEOUT)  # g0 dequeued, held
            accepted = supervisor.submit("g1", paper_request(18), collector)
            assert accepted["event"] == protocol.EVENT_ACCEPTED
            rejected = supervisor.submit("g2", paper_request(20), collector)
            assert rejected["event"] == protocol.EVENT_REJECTED
            assert rejected["reason"] == protocol.REJECT_OVERLOADED
            assert rejected["queue_depth"] == config.queue_limit
            gate.release.set()
            assert supervisor.drain(timeout=GATE_TIMEOUT)
        finally:
            gate.release.set()
            supervisor.close()
        assert set(collector.results()) == {"g0", "g1"}
        stats = supervisor.stats()
        assert stats["rejected_overloaded"] == 1
        assert stats["max_queue_depth"] <= config.queue_limit + 1

    def test_shutting_down_rejection_after_drain(self):
        collector = Collector()
        with Supervisor() as supervisor:
            supervisor.drain(timeout=GATE_TIMEOUT)
            message = supervisor.submit("late", paper_request(), collector)
            assert message["reason"] == protocol.REJECT_SHUTTING_DOWN

    def test_bad_request_payload_rejected_via_process(self):
        collector = Collector()
        with Supervisor() as supervisor:
            alive = supervisor.process(
                {"op": "solve", "id": "r1", "request": {"soc": "no-such-soc"}},
                collector,
            )
            assert alive
            supervisor.drain(timeout=GATE_TIMEOUT)
        rejected = collector.messages(protocol.EVENT_REJECTED)
        assert len(rejected) == 1
        assert rejected[0]["reason"] == protocol.REJECT_BAD_REQUEST
        assert rejected[0]["error"]


# ----------------------------------------------------------------------
# Deadlines + cancellation
# ----------------------------------------------------------------------
class TestDeadlinesAndCancellation:
    """Budgets expire queued or mid-solve; disconnects cancel client work."""

    def test_deadline_expires_while_queued_without_starting(self):
        gate = Gate()
        collector = Collector()
        supervisor = Supervisor(config=ServiceConfig(max_inflight=1))
        supervisor.started_hook = gate
        try:
            supervisor.start()
            supervisor.submit("slow", paper_request(), collector)
            assert gate.entered.wait(timeout=GATE_TIMEOUT)
            supervisor.submit("doomed", paper_request(18), collector, deadline=0.05)
            time.sleep(0.15)  # let the queued budget lapse before release
            gate.release.set()
            assert supervisor.drain(timeout=GATE_TIMEOUT)
        finally:
            gate.release.set()
            supervisor.close()
        failed = {m["id"]: m for m in collector.messages(protocol.EVENT_FAILED)}
        assert failed["doomed"]["reason"] == protocol.FAIL_DEADLINE
        # Expired while queued: journalled accepted -> failed, never started.
        assert journal_kinds(supervisor, "doomed") == [KIND_ACCEPTED, KIND_FAILED]
        assert supervisor.stats()["deadline_expired"] == 1

    def test_deadline_abandons_solve_mid_flight(self):
        collector = Collector()
        supervisor = Supervisor(config=ServiceConfig(max_inflight=1))
        supervisor.started_hook = lambda request_id: time.sleep(0.15)
        try:
            supervisor.start()
            supervisor.submit("mid", paper_request(), collector, deadline=0.05)
            assert supervisor.drain(timeout=GATE_TIMEOUT)
        finally:
            supervisor.close()
        failed = collector.messages(protocol.EVENT_FAILED)
        assert [m["id"] for m in failed] == ["mid"]
        assert failed[0]["reason"] == protocol.FAIL_DEADLINE
        # The solve *started* and was abandoned at a scheduler checkpoint.
        assert journal_kinds(supervisor, "mid") == [
            KIND_ACCEPTED, KIND_STARTED, KIND_FAILED,
        ]

    def test_explicit_cancel_of_queued_request(self):
        gate = Gate()
        collector = Collector()
        supervisor = Supervisor(config=ServiceConfig(max_inflight=1))
        supervisor.started_hook = gate
        try:
            supervisor.start()
            supervisor.submit("held", paper_request(), collector)
            assert gate.entered.wait(timeout=GATE_TIMEOUT)
            supervisor.submit("victim", paper_request(18), collector)
            assert supervisor.cancel("victim")
            assert not supervisor.cancel("never-seen")
            gate.release.set()
            assert supervisor.drain(timeout=GATE_TIMEOUT)
        finally:
            gate.release.set()
            supervisor.close()
        failed = {m["id"]: m for m in collector.messages(protocol.EVENT_FAILED)}
        assert failed["victim"]["reason"] == protocol.FAIL_CANCELLED
        assert set(collector.results()) == {"held"}

    def test_disconnect_cancels_in_flight_work_and_drops_delivery(self):
        gate = Gate()
        collector = Collector()
        supervisor = Supervisor(config=ServiceConfig(max_inflight=1))
        supervisor.started_hook = gate
        try:
            supervisor.start()
            supervisor.submit("gone", paper_request(), collector, client="alice")
            assert gate.entered.wait(timeout=GATE_TIMEOUT)
            assert supervisor.disconnect("alice") == 1
            assert supervisor.disconnect("nobody") == 0
            gate.release.set()
            assert supervisor.drain(timeout=GATE_TIMEOUT)
        finally:
            gate.release.set()
            supervisor.close()
        # No message of any kind reached the vanished client post-accept...
        assert collector.messages(protocol.EVENT_RESULT) == []
        assert collector.messages(protocol.EVENT_FAILED) == []
        # ...but the journal still settled the request (complete account).
        assert journal_kinds(supervisor, "gone") == [
            KIND_ACCEPTED, KIND_STARTED, KIND_FAILED,
        ]
        stats = supervisor.stats()
        assert stats["disconnects"] == 1
        assert stats["inflight"] == 0


# ----------------------------------------------------------------------
# Dedup: coalescing + cache
# ----------------------------------------------------------------------
class TestDedup:
    """Identical requests share one solve in flight and the cache after."""

    def test_followers_coalesce_onto_in_flight_primary(self):
        gate = Gate()
        collector = Collector()
        supervisor = Supervisor(config=ServiceConfig(max_inflight=2))
        supervisor.started_hook = gate
        request = paper_request()
        try:
            supervisor.start()
            supervisor.submit("a", request, collector)
            assert gate.entered.wait(timeout=GATE_TIMEOUT)
            supervisor.submit("b", request, collector)
            deadline = time.perf_counter() + GATE_TIMEOUT
            while supervisor.stats().get("dedup_coalesced", 0) < 1:
                assert time.perf_counter() < deadline, "follower never coalesced"
                time.sleep(0.005)
            gate.release.set()
            assert supervisor.drain(timeout=GATE_TIMEOUT)
        finally:
            gate.release.set()
            supervisor.close()
        dedup = {
            m["id"]: m["dedup"] for m in collector.messages(protocol.EVENT_RESULT)
        }
        assert dedup == {"a": protocol.DEDUP_FRESH, "b": protocol.DEDUP_COALESCED}
        results = collector.results()
        assert protocol.canonical_result_dict(
            results["a"]
        ) == protocol.canonical_result_dict(results["b"])
        # The follower never got its own started record: one solve ran.
        assert journal_kinds(supervisor, "b") == [KIND_ACCEPTED, KIND_COMPLETED]

    def test_settled_results_serve_from_cache(self):
        collector = Collector()
        with Supervisor(config=ServiceConfig(max_inflight=1)) as supervisor:
            supervisor.submit("first", paper_request(), collector)
            deadline = time.perf_counter() + GATE_TIMEOUT
            while "first" not in collector.results():
                assert time.perf_counter() < deadline, "first solve never settled"
                time.sleep(0.005)
            supervisor.submit("second", paper_request(), collector)
            assert supervisor.drain(timeout=GATE_TIMEOUT)
            stats = supervisor.stats()
        dedup = {
            m["id"]: m["dedup"] for m in collector.messages(protocol.EVENT_RESULT)
        }
        assert dedup == {
            "first": protocol.DEDUP_FRESH,
            "second": protocol.DEDUP_CACHED,
        }
        assert stats["dedup_cached"] == 1
        assert stats["dedup_cache_entries"] == 1

    def test_cache_disabled_when_size_zero(self):
        collector = Collector()
        config = ServiceConfig(max_inflight=1, dedup_cache_size=0)
        with Supervisor(config=config) as supervisor:
            supervisor.submit("first", paper_request(), collector)
            assert supervisor.drain(timeout=GATE_TIMEOUT)
            assert supervisor.stats()["dedup_cache_entries"] == 0


# ----------------------------------------------------------------------
# Crash recovery: journal replay byte-identity
# ----------------------------------------------------------------------
class TestJournalReplay:
    """A restarted supervisor recovers losslessly from the journal alone."""

    def test_replay_after_simulated_crash_is_byte_identical(self, tmp_path):
        journal_path = tmp_path / "service_journal.jsonl"
        request_one = paper_request(16)
        request_two = paper_request(24)
        batch = Session()
        try:
            reference_two = protocol.canonical_result_dict(
                batch.solve(request_two).to_dict()
            )
        finally:
            batch.close()

        first = Supervisor(
            config=ServiceConfig(max_inflight=1, journal_path=journal_path)
        )
        collector = Collector()

        def crash_on_second(request_id):
            if request_id == "r2":
                first.crash_for_test()

        first.started_hook = crash_on_second
        try:
            first.start()
            first.submit("r1", request_one, collector)
            first.submit("r2", request_two, collector)
            first.drain(timeout=GATE_TIMEOUT)
        finally:
            first.close()
        pre_crash = collector.results()
        assert set(pre_crash) == {"r1"}  # r2 died with the "process"

        replay_collector = Collector()
        second = Supervisor(
            config=ServiceConfig(max_inflight=1, journal_path=journal_path)
        )
        try:
            second.start(replay_reply=replay_collector)
            # Recovery restores duplicate-id rejection across the restart.
            rejected = second.submit("r1", request_one, Collector())
            assert rejected["reason"] == protocol.REJECT_DUPLICATE_ID
            assert second.drain(timeout=GATE_TIMEOUT)
            stats = second.stats()
        finally:
            second.close()

        replayed = {
            m["id"]: m for m in replay_collector.messages(protocol.EVENT_RESULT)
        }
        assert set(replayed) == {"r1", "r2"}
        # Completed-but-unacked: re-served VERBATIM -- wall_time included.
        assert replayed["r1"]["dedup"] == protocol.DEDUP_REPLAYED
        assert dict(replayed["r1"]["result"]) == pre_crash["r1"]
        # Accepted-but-unsettled: deterministically re-run.
        assert protocol.canonical_result_dict(
            dict(replayed["r2"]["result"])
        ) == reference_two
        assert stats["replayed"] == 1
        assert stats["recovered"] == 1

    def test_acked_results_are_not_replayed(self, tmp_path):
        journal_path = tmp_path / "service_journal.jsonl"
        first = Supervisor(config=ServiceConfig(journal_path=journal_path))
        try:
            first.start()
            first.submit("r1", paper_request(), Collector())
            assert first.drain(timeout=GATE_TIMEOUT)
            first.ack("r1")
        finally:
            first.close()
        replay_collector = Collector()
        second = Supervisor(config=ServiceConfig(journal_path=journal_path))
        try:
            second.start(replay_reply=replay_collector)
            assert second.drain(timeout=GATE_TIMEOUT)
        finally:
            second.close()
        assert replay_collector.messages(protocol.EVENT_RESULT) == []

    def test_serve_chaos_flood_and_server_kill_scenarios_pass(self, tmp_path):
        report = run_serve_chaos(
            SOC, 12, kinds=("flood", "server-kill"), journal_dir=tmp_path
        )
        assert report.ok, report.to_dict()
        assert [outcome.kind for outcome in report.outcomes] == [
            "flood", "server-kill",
        ]

    def test_serve_chaos_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown serve fault kind"):
            run_serve_chaos(SOC, 12, kinds=("flood", "rack-fire"))


# ----------------------------------------------------------------------
# Stream transport
# ----------------------------------------------------------------------
class TestServeStream:
    """The JSONL stream shell over the supervisor."""

    def run_client(self, lines, config=None):
        supervisor = Supervisor(config=config or ServiceConfig(max_inflight=1))
        output = io.StringIO()
        try:
            served = serve_stream(
                supervisor, io.StringIO("".join(lines)), output, client="test"
            )
        finally:
            supervisor.close()
        messages = [
            json.loads(line) for line in output.getvalue().splitlines()
        ]
        return served, messages, supervisor

    def test_happy_path_hello_result_bye(self):
        request_line = protocol.encode_message(
            {"op": "solve", "id": "r1", "request": paper_request().to_dict()}
        )
        served, messages, _ = self.run_client(
            [request_line + "\n", '{"op": "stats"}\n', '{"op": "shutdown"}\n']
        )
        events = [message["event"] for message in messages]
        assert events[0] == protocol.EVENT_HELLO
        assert events[-1] == protocol.EVENT_BYE
        assert messages[0]["protocol"] == protocol.PROTOCOL_VERSION
        assert protocol.EVENT_ACCEPTED in events
        assert protocol.EVENT_STATS in events
        results = [m for m in messages if m["event"] == protocol.EVENT_RESULT]
        assert [m["id"] for m in results] == ["r1"]
        assert served == 1
        assert messages[-1]["served"] == 1

    def test_spaced_core_names_solve_to_the_golden_makespan(self):
        # p93791's cores are named "Core 1", "Core 2", ...: the request's
        # SOC text must read back on the server side.
        request = ScheduleRequest(
            soc=get_benchmark("p93791"), total_width=32, solver="paper"
        )
        request_line = protocol.encode_message(
            {"op": "solve", "id": "p1", "request": request.to_dict()}
        )
        served, messages, _ = self.run_client([request_line + "\n"])
        results = [m for m in messages if m["event"] == protocol.EVENT_RESULT]
        assert served == 1 and [m["id"] for m in results] == ["p1"]
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)["makespans"]["p93791/paper/32"]
        assert results[0]["result"]["makespan"] == golden

    def test_eof_drains_instead_of_disconnecting(self):
        request_line = protocol.encode_message(
            {"op": "solve", "id": "r1", "request": paper_request().to_dict()}
        )
        # No shutdown op: the client just closes stdin after one request.
        served, messages, _ = self.run_client([request_line + "\n", "\n"])
        assert served == 1
        assert messages[-1]["event"] == protocol.EVENT_BYE

    def test_malformed_line_answers_bad_request_and_lives_on(self):
        request_line = protocol.encode_message(
            {"op": "solve", "id": "r1", "request": paper_request().to_dict()}
        )
        served, messages, _ = self.run_client(
            ["this is not json\n", request_line + "\n", '{"op": "shutdown"}\n']
        )
        rejected = [m for m in messages if m["event"] == protocol.EVENT_REJECTED]
        assert len(rejected) == 1
        assert rejected[0]["reason"] == protocol.REJECT_BAD_REQUEST
        assert served == 1  # the server outlived the garbage line

    def test_non_integer_width_line_answers_bad_request(self):
        # A served width of 32.9 used to be truncated to 32, so it shared
        # the fingerprint (and the dedup answer) of a real 32 request.
        payload = paper_request(32).to_dict()
        lines = [
            protocol.encode_message({"op": "solve", "id": "real", "request": payload}),
            protocol.encode_message(
                {"op": "solve", "id": "fraction", "request": {**payload, "total_width": 32.9}}
            ),
            '{"op": "shutdown"}',
        ]
        served, messages, _ = self.run_client([line + "\n" for line in lines])
        rejected = [m for m in messages if m["event"] == protocol.EVENT_REJECTED]
        assert [(m["id"], m["reason"]) for m in rejected] == [
            ("fraction", protocol.REJECT_BAD_REQUEST)
        ]
        assert "integer" in rejected[0]["error"]
        assert served == 1

    def test_non_integer_config_delta_answers_bad_request(self):
        # A served ``config.delta`` of 2.5 used to be solved as a real
        # request, with a makespan no integer delta gives.
        payload = paper_request(32).to_dict()
        bad = {**payload, "config": {**payload["config"], "delta": 2.5}}
        lines = [
            protocol.encode_message({"op": "solve", "id": "fraction", "request": bad}),
            '{"op": "shutdown"}',
        ]
        served, messages, _ = self.run_client([line + "\n" for line in lines])
        rejected = [m for m in messages if m["event"] == protocol.EVENT_REJECTED]
        assert [(m["id"], m["reason"]) for m in rejected] == [
            ("fraction", protocol.REJECT_BAD_REQUEST)
        ]
        assert "delta" in rejected[0]["error"]
        assert served == 0

    def test_broken_output_pipe_disconnects_the_client(self):
        class BrokenAfter:
            """A sink that dies after ``allow`` successful writes."""

            def __init__(self, allow):
                self.allow = allow
                self.writes = 0

            def write(self, text):
                if self.writes >= self.allow:
                    raise BrokenPipeError("client went away")
                self.writes += 1

            def flush(self):
                pass

        request_line = protocol.encode_message(
            {"op": "solve", "id": "r1", "request": paper_request().to_dict()}
        )
        supervisor = Supervisor(config=ServiceConfig(max_inflight=1))
        try:
            # Enough budget for hello + accepted; the result write breaks.
            serve_stream(
                supervisor,
                io.StringIO(request_line + "\n"),
                BrokenAfter(allow=2),
                client="test",
            )
            stats = supervisor.stats()
            journalled = journal_kinds(supervisor, "r1")
        finally:
            supervisor.close()
        # The journal settled the request even though delivery failed --
        # a restarted server would replay it to a reconnecting client.
        assert journalled == [KIND_ACCEPTED, KIND_STARTED, KIND_COMPLETED]
        assert stats["delivery_failures"] >= 1


# ----------------------------------------------------------------------
# Lifecycle hardening (close idempotency)
# ----------------------------------------------------------------------
class TestLifecycleHardening:
    """close() is idempotent and dead-pool-safe."""

    class DeadPool:
        """A pool handle whose workers were already reaped (teardown raises)."""

        def terminate(self):
            raise OSError("pool already collected")

        def join(self):
            raise AssertionError("join on a half-collected pool")

    def test_executor_close_survives_dead_pool_and_stays_usable(self):
        executor = FlatExecutor()
        executor._pool = self.DeadPool()
        executor.close()  # must absorb the dead handle, not raise
        assert not executor.pool_alive
        executor.close()  # and stay idempotent after that

    def test_session_close_is_idempotent_and_session_stays_usable(self):
        session = Session()
        result = session.solve(paper_request())
        session.close()
        session.close()
        again = session.solve(paper_request())
        assert again.to_dict()["makespan"] == result.to_dict()["makespan"]
        session.close()

    def test_close_default_executor_after_explicit_close(self, monkeypatch):
        executor = FlatExecutor()
        monkeypatch.setattr(executor_module, "_DEFAULT_EXECUTOR", executor)
        executor.close()
        executor_module.close_default_executor()  # the atexit-hook path
        assert not executor.pool_alive

    def test_supervisor_close_leaves_the_shared_pool_alone(self, monkeypatch):
        # No service solve uses the process pool, so closing a supervisor
        # must not tear down a pool another caller in the process keeps warm.
        executor = FlatExecutor()
        monkeypatch.setattr(executor_module, "_DEFAULT_EXECUTOR", executor)
        jobs = [ScheduleJob(index=i, soc=SOC.name, width=w)
                for i, w in enumerate((12, 16))]
        try:
            run_jobs(jobs, EngineContext.for_soc(SOC), workers=2)
            assert executor.pool_alive
            supervisor = Supervisor()
            supervisor.start()
            supervisor.close()
            assert executor.pool_alive
        finally:
            executor.close()

    def test_supervisor_close_is_idempotent(self):
        supervisor = Supervisor()
        supervisor.start()
        supervisor.close()
        supervisor.close()
        with pytest.raises(SupervisorError, match="already started"):
            supervisor.start()
