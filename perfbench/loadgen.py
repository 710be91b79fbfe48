"""Open-loop load generator for a JSONL service.

Requests are sent on a fixed schedule whatever the server does, so a
stalled server lets its queue grow instead of slowing the load.  Latency
runs from each request's *due* time to its reply, which charges a stall to
every request it delays, including requests the generator itself sent
late.  The generator uses two threads: the caller's thread writes, one
reader thread stamps replies.

Run as a script it is the client process of the ``serve-open`` workload::

    python3 loadgen.py ARRIVALS RECORD

It reads the arrivals (JSON lines of ``due``, ``request_id``, ``line``), writes
requests to its standard output, reads replies from its standard input
and writes what it saw to ``RECORD`` as JSON.  Its own process keeps the
client's timing free of the server's interpreter lock.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import IO, Any, Callable, Dict, List, Sequence


@dataclass(frozen=True)
class Arrival:
    """One request: when it is due (seconds after the start) and its line."""

    due: float
    request_id: str
    line: str


def paced_offsets(rng: random.Random, gap: float, seconds: float, jitter: float) -> List[float]:
    """Arrival offsets one ``gap`` apart over ``seconds``, each moved by a
    uniform draw of up to ``jitter`` (a share of the gap, below one half)
    either way.  Every seed offers the same count at the same rate, and
    two arrivals are never closer than ``(1 - 2 * jitter) * gap``."""
    return [
        (index + 0.5 + rng.uniform(-jitter, jitter)) * gap
        for index in range(round(seconds / gap))
    ]


@dataclass
class LoadRecord:
    """What one open-loop run observed, in absolute clock readings."""

    start: float = 0.0
    due: Dict[str, float] = field(default_factory=dict)
    sent: Dict[str, float] = field(default_factory=dict)
    replies: Dict[str, float] = field(default_factory=dict)
    messages: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    other_events: List[Dict[str, Any]] = field(default_factory=list)
    end: float = 0.0

    def latencies(self) -> Dict[str, float]:
        """Per request: reply time minus due time (not minus send time)."""
        return {rid: self.replies[rid] - self.due[rid] for rid in self.replies if rid in self.due}

    def lags(self) -> List[float]:
        """How late the generator sent each request."""
        return [self.sent[rid] - self.due[rid] for rid in self.sent]


#: Reply events that settle a request.
SETTLING_EVENTS = ("result", "failed", "rejected")
#: How long the reply reader may take to see the server's ``bye`` after
#: the last request is sent.
READER_TIMEOUT_S = 120.0


def run_open_loop(
    arrivals: Sequence[Arrival],
    requests: IO[str],
    replies: IO[str],
    sleep: Callable[[float], None] = time.sleep,
) -> LoadRecord:
    """Send ``arrivals`` on schedule into ``requests``; stamp ``replies``.

    Closes ``requests`` after the last arrival (the server reads that as
    end of input and drains) and returns once ``replies`` reaches a
    ``bye`` event or end of file.
    """
    record = LoadRecord()

    def read() -> None:
        for line in replies:
            now = time.perf_counter()
            message = json.loads(line)
            event = message.get("event")
            if event in SETTLING_EVENTS and message.get("id"):
                record.replies[message["id"]] = now
                record.messages[message["id"]] = message
            elif event != "accepted":
                record.other_events.append(message)
                if event == "bye":
                    break
        record.end = time.perf_counter()

    reader = threading.Thread(target=read, name="perfbench-reader", daemon=True)
    reader.start()
    record.start = time.perf_counter()
    try:
        for arrival in arrivals:
            due = record.start + arrival.due
            record.due[arrival.request_id] = due
            wait = due - time.perf_counter()
            if wait > 0:
                sleep(wait)
            requests.write(arrival.line)
            requests.flush()
            record.sent[arrival.request_id] = time.perf_counter()
    finally:
        requests.close()
        reader.join(timeout=READER_TIMEOUT_S)
    if reader.is_alive():
        raise RuntimeError("the reply reader did not finish; the server hung")
    return record


def main(arrivals_path: str, record_path: str) -> int:
    with open(arrivals_path, encoding="utf-8") as handle:
        arrivals = [Arrival(**json.loads(line)) for line in handle]
    replies = sys.stdin
    hello = json.loads(replies.readline())
    if hello.get("event") != "hello":
        raise RuntimeError(f"expected the server's hello, got {hello!r}")
    # sys.stdout never closes its descriptor; this handle does, and that
    # end of file is what tells the server to drain.
    requests = open(sys.stdout.fileno(), "w", encoding="utf-8")
    record = run_open_loop(arrivals, requests, replies)
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(asdict(record), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
