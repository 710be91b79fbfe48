"""Tests of the benchmark's own helpers.

Run from the root of the repository with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import pytest

from cpuspeed import Samplers
from gate import Gate
from loadgen import Arrival, run_open_loop
from measure import (
    MIN_BEYOND,
    REFERENCE_WORK_S,
    Span,
    Tracer,
    covered_length,
    host_scale,
    layer_self_times,
    nearest_rank,
    samples_beyond,
    self_times,
    tail_percentile,
)

GOLDEN = Path(__file__).resolve().parent.parent / "benchmarks" / "golden_makespans.json"


# ----------------------------------------------------------------------
# Nearest-rank percentile and the ten-samples-beyond rule
# ----------------------------------------------------------------------
def test_nearest_rank_picks_an_observed_sample():
    samples = [float(value) for value in range(1, 11)]
    assert nearest_rank(samples, 0.5) == 5.0
    assert nearest_rank(samples, 0.9) == 9.0
    assert nearest_rank(samples, 0.91) == 10.0
    assert nearest_rank(samples, 1.0) == 10.0
    assert nearest_rank([3.0], 0.9) == 3.0


def test_nearest_rank_ignores_input_order():
    assert nearest_rank([5.0, 1.0, 4.0, 2.0, 3.0], 0.6) == 3.0


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
def test_nearest_rank_rejects_quantiles_outside_the_unit_interval(bad):
    with pytest.raises(ValueError):
        nearest_rank([1.0], bad)


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.9) == MIN_BEYOND
    assert samples_beyond(99, 0.9) == MIN_BEYOND - 1
    supported = [float(value) for value in range(1, 101)]
    assert tail_percentile(supported, 0.9) == (90.0, True)
    short = [float(value) for value in range(1, 100)]
    assert tail_percentile(short, 0.9) == (99.0, False)


# ----------------------------------------------------------------------
# CPU speed
# ----------------------------------------------------------------------
def test_host_scale_averages_the_samples_inside_the_windows():
    fast, slow = REFERENCE_WORK_S, 2 * REFERENCE_WORK_S
    samples = [(0.5, fast), (1.5, slow), (2.5, slow), (3.5, fast), (9.0, 10.0)]
    assert host_scale(samples, [(0.0, 2.0)]) == pytest.approx(1.5)
    assert host_scale(samples, [(1.0, 3.0)]) == pytest.approx(2.0)
    assert host_scale(samples, [(0.0, 1.0), (3.0, 4.0)]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        host_scale(samples, [(4.0, 8.0)])


def test_samplers_time_the_reference_task_and_end():
    with Samplers(sorted(os.sched_getaffinity(0))[:1]) as samplers:
        threading.Event().wait(0.3)
        samples = samplers.stop()
    assert samples
    assert all(seconds > 0 for _, seconds in samples)
    assert all(process.poll() is not None for process in samplers.processes)


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def span(span_id, start, end, parent=None, layer="l", name="n"):
    return Span(span_id, name, layer, start, end, parent, "")


def test_covered_length_merges_overlaps_and_clips_to_the_window():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert covered_length([(-5, -1), (11, 12)], 0, 10) == 0
    assert covered_length([(2, 3), (2, 3)], 0, 10) == pytest.approx(1)


def test_self_time_subtracts_nested_and_overlapping_children_once():
    spans = [
        span(0, 0.0, 10.0, layer="outer"),
        span(1, 1.0, 4.0, parent=0, layer="inner"),
        span(2, 3.0, 6.0, parent=0, layer="inner"),  # overlaps span 1
        span(3, 2.0, 3.0, parent=1, layer="leaf"),  # nested in span 1
        span(4, 8.0, 12.0, parent=0, layer="inner"),  # spills past its parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    layers = layer_self_times(spans)
    assert layers["outer"] == pytest.approx(3.0)
    assert layers["leaf"] == pytest.approx(1.0)


def test_tracer_nests_spans_per_thread_and_restores_patches():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Owner:
        @staticmethod
        def inner():
            return "inner"

        @staticmethod
        def outer():
            return Owner.inner() + "-outer"

    original = Owner.__dict__["inner"]
    tracer.patch(Owner, "inner", "inner", "layer.inner")
    tracer.patch(Owner, "outer", "outer", "layer.outer")
    assert Owner.outer() == "inner-outer"
    tracer.restore()
    assert Owner.__dict__["inner"] is original
    outer, = tracer.spans_named("outer")
    inner, = tracer.spans_named("inner")
    assert inner.parent == outer.span_id and outer.parent is None
    # outer 0..3, inner 1..2: one tick of each is its own.
    assert layer_self_times(tracer.spans) == {"layer.outer": 2.0, "layer.inner": 1.0}


# ----------------------------------------------------------------------
# Golden gate
# ----------------------------------------------------------------------
def test_golden_gate_rejects_one_corrupted_fingerprint():
    from repro.analysis.perf import schedule_fingerprint
    from repro.soc.benchmarks import get_benchmark
    from repro.solvers import ScheduleRequest, Session

    with open(GOLDEN, encoding="utf-8") as handle:
        gate = Gate(json.load(handle))
    key = "d695/paper/32"
    result = Session().solve(
        ScheduleRequest(soc=get_benchmark("d695"), total_width=32, solver="paper")
    )
    fingerprint = schedule_fingerprint(result.schedule)
    assert gate.check(key, result.makespan, fingerprint)
    corrupted = ("0" if fingerprint[0] != "0" else "1") + fingerprint[1:]
    assert not gate.check(key, result.makespan, corrupted)
    assert not gate.check(key, result.makespan + 1, fingerprint)
    assert gate.checked == 3 and gate.golden_checked == 3
    assert len(gate.mismatches) == 2


def test_gate_uses_the_serial_reference_and_fails_unknown_keys():
    gate = Gate({"makespans": {}, "fingerprints": {}})
    gate.record_reference("s1000-7/best/64", 100, "abc")
    assert gate.check("s1000-7/best/64", 100, "abc")
    assert not gate.check("s1000-7/best/64", 100, "abd")
    assert not gate.check("never/recorded", 1)


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
def test_open_loop_latency_runs_from_the_due_time_not_the_send_time():
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    server_in = open(request_r, "r", encoding="utf-8")
    server_out = open(reply_w, "w", encoding="utf-8")

    def echo_server():
        # Replies at once, so any latency beyond a few milliseconds is the
        # generator's own lateness.
        with server_in, server_out:
            for line in server_in:
                server_out.write(json.dumps({"event": "result", "id": line.strip()}) + "\n")
                server_out.flush()
            server_out.write(json.dumps({"event": "bye"}) + "\n")

    server = threading.Thread(target=echo_server, daemon=True)
    server.start()
    oversleep = 0.2

    def late_sleep(seconds):
        threading.Event().wait(seconds + oversleep)

    arrivals = [Arrival(0.01, "a", "a\n"), Arrival(0.01, "b", "b\n")]
    record = run_open_loop(
        arrivals,
        open(request_w, "w", encoding="utf-8"),
        open(reply_r, "r", encoding="utf-8"),
        sleep=late_sleep,
    )
    server.join(timeout=10)
    assert not server.is_alive()
    latencies = record.latencies()
    assert set(latencies) == {"a", "b"}
    for request_id in ("a", "b"):
        assert record.replies[request_id] - record.sent[request_id] < oversleep / 2
        assert latencies[request_id] >= 0.9 * oversleep
    assert min(record.lags()) >= 0.9 * oversleep
    assert record.other_events == [{"event": "bye"}]
