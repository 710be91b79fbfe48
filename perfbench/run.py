"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-s1000 --seed 1003 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, with their
times expressed at the CPUs' fast speed (see ``cpuspeed.py``).  ``--trace
1`` repeats the same work with spans around each layer's public calls and
reports the per-layer metrics; spans are written to
``.perfbench_out/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  Any error exits non-zero
without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from statistics import geometric_mean, median
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "benchmarks" / "golden_makespans.json"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

from measure import host_scale, layer_self_times, self_times, tail_percentile  # noqa: E402

#: Set-up is timed in two rounds, one before the timed phase and one after
#: it, so its samples span the run rather than one moment of a host whose
#: speed changes within seconds.  Each round repeats it at least
#: ``SETUP_REPEATS`` times, and cheap set-ups until ``SETUP_BUDGET_S`` is
#: spent; ``setup_s`` is the median import time plus the median set-up of
#: both rounds.  Each phase uses what the set-up before it built.
SETUP_REPEATS = 2
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPEATS = 8
#: Fresh interpreters timed importing the driven layers.
IMPORT_REPEATS = 3
#: The seed used while the benchmark was written, and one kept back that
#: later performance claims must also hold on.
DEFAULT_SEED = 1003
HELD_OUT_SEED = 4242

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("makespan_over_lb_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("wrapper.curve_build_s", "s"),
    ("wrapper.widths_computed_count", "count"),
    ("wrapper.cache_hit_ratio", "ratio"),
    ("rectangles.build_s", "s"),
    ("session.rect_cache_hit_ratio", "ratio"),
    ("session.solve_s", "s"),
    ("lower_bounds.bound_s", "s"),
    ("grid.dedupe_s", "s"),
    ("grid.order_s", "s"),
    ("grid.sweep_s", "s"),
    ("grid.unique_run_ratio", "ratio"),
    ("grid.early_exit_share", "share"),
    ("scheduler.run_s", "s"),
    ("scheduler.run_p50_s", "s"),
    ("scheduler.runs_count", "count"),
    ("scheduler.pruned_share", "share"),
    ("schedule.validate_s", "s"),
    ("schedule.segments_count", "count"),
    ("executor.pool_starts_count", "count"),
    ("executor.pool_start_s", "s"),
    ("executor.dispatch_s", "s"),
    ("executor.tasks_count", "count"),
    ("executor.jobs_count", "count"),
    ("executor.decomposed_jobs_count", "count"),
    ("executor.retries_count", "count"),
    ("executor.board_aborts_count", "count"),
    ("executor.parallel_efficiency_ratio", "ratio"),
    ("executor.stderr_tracebacks_count", "count"),
    ("service.admission_s", "s"),
    ("service.queue_wait_p50_s", "s"),
    ("service.queue_wait_p90_s", "s"),
    ("service.solve_p50_s", "s"),
    ("service.max_queue_depth_count", "count"),
    ("service.dedup_hit_ratio", "ratio"),
    ("service.rejected_count", "count"),
    ("journal.append_s", "s"),
    ("journal.request_bytes", "bytes"),
    ("journal.records_count", "count"),
    ("protocol.encode_s", "s"),
    ("protocol.parse_s", "s"),
    ("loadgen.lag_p90_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.attributed_share", "share"),
    ("trace.other_s", "s"),
    ("trace.dominant_layer_share", "share"),
)

#: Span names whose self time makes up each per-layer time metric.
SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "wrapper.curve_build_s": ("wrapper_curve",),
    "rectangles.build_s": (
        "build_rectangle_sets",
        "resolve_rectangle_sets",
        "Session.rectangle_sets",
    ),
    "session.solve_s": ("Session.solve",),
    "lower_bounds.bound_s": ("lower_bound",),
    "grid.dedupe_s": ("dedupe_grid",),
    "grid.order_s": ("order_runs_by_estimate",),
    "grid.sweep_s": ("run_grid_sweep",),
    "scheduler.run_s": ("run_paper_scheduler",),
    "schedule.validate_s": ("TestSchedule.validate",),
    "executor.pool_start_s": ("Pool.__init__",),
    "executor.dispatch_s": ("run_jobs", "FlatExecutor.run_jobs", "FlatExecutor.run_grid_runs"),
    "service.admission_s": ("Supervisor.process", "Supervisor.submit"),
    "journal.append_s": ("EventJournal.append",),
    "protocol.encode_s": ("encode_message",),
    "protocol.parse_s": ("parse_client_line",),
}

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_report(
    workload: Any, tracer: Any, traced: Any, untraced: Any, extras: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics and per-layer self seconds of one traced run.

    The basis of the attribution is the summed duration of the root spans:
    the harness's top-level calls, or for the service every span a server
    thread opened outside any other.  Time no named layer claims is
    ``other``.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + own[span.span_id]
        durations.setdefault(span.name, []).append(span.duration)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for metric, names in SPAN_METRICS.items():
        metrics[metric] = sum(by_name.get(name, 0.0) for name in names)

    counts = tracer.counts
    hits, misses = counts.get("curve.hits", 0), counts.get("curve.misses", 0)
    metrics["wrapper.widths_computed_count"] = counts.get("curve.widths", 0)
    metrics["wrapper.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    session_ids = {span.span_id for span in spans if span.name == "Session.rectangle_sets"}
    session_misses = sum(
        1 for span in spans if span.name == "build_rectangle_sets" and span.parent in session_ids
    )
    if session_ids:
        metrics["session.rect_cache_hit_ratio"] = 1.0 - session_misses / len(session_ids)
    if counts.get("grid.points"):
        metrics["grid.unique_run_ratio"] = counts["grid.unique_runs"] / counts["grid.points"]
        metrics["grid.early_exit_share"] = counts["grid.early_exits"] / counts["grid.sweeps"]
    runs = durations.get("run_paper_scheduler", [])
    if runs:
        metrics["scheduler.run_p50_s"] = median(runs)
        metrics["scheduler.runs_count"] = len(runs)
    metrics["schedule.segments_count"] = counts.get("schedule.segments", 0)
    tally = untraced.extra.get("executor")
    if tally is not None:
        metrics["executor.pool_starts_count"] = tally.pool_starts
        metrics["executor.tasks_count"] = tally.tasks
        metrics["executor.jobs_count"] = tally.jobs
        metrics["executor.decomposed_jobs_count"] = tally.decomposed_jobs
        metrics["executor.retries_count"] = tally.retries
        metrics["executor.board_aborts_count"] = tally.board_aborts

    layers = layer_self_times(spans)
    if workload.scheduler_host is not None and "scheduler.run_s" in extras:
        # Only the layer breakdown moves the replayed scheduler time; the
        # host's own metric stays its measured self time.
        host, sharing = workload.scheduler_host
        moved = min(extras["scheduler.run_s"] / sharing, layers.get(host, 0.0))
        layers[host] = layers.get(host, 0.0) - moved
        layers["core.scheduler"] = layers.get("core.scheduler", 0.0) + moved
    for key, value in extras.items():
        if key in metrics:
            metrics[key] = value

    from workloads import NAMED_LAYERS

    basis = sum(span.duration for span in spans if span.parent is None)
    named = {layer: layers.get(layer, 0.0) for layer in NAMED_LAYERS}
    attributed = sum(named.values())
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["trace.attributed_share"] = attributed / basis if basis else 0.0
    metrics["trace.other_s"] = basis - attributed
    metrics["trace.dominant_layer_share"] = max(named.values()) / basis if basis else 0.0
    named["other"] = basis - attributed
    return metrics, named


def end_to_end(
    setup_s: float,
    setup_windows: List[Tuple[float, float]],
    phase: Any,
    phase_window: Tuple[float, float],
    speed: List[Tuple[float, float]],
    workload: Any,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics of one untraced phase.

    Times are divided by how much slower than their fast state the sampled
    CPUs ran while they were taken: ``setup_s`` by the scale over the
    set-up windows, each batch call's latency by the scale over that call,
    and ``serve-open``'s latencies, whose requests are too short to sample
    one by one, by the scale over the phase.  The batch workloads' rate is
    multiplied by the phase's scale; a paced workload's rate is set by its
    arrivals, so it is left as measured.  Batch workloads finish a few
    dozen calls at most, so their ``latency_p90_s`` repeats the median
    rather than reporting a maximum that one slow call would move.
    """
    setup_scale = host_scale(speed, setup_windows)
    phase_scale = host_scale(speed, [phase_window])
    if phase.windows:
        latencies = [
            latency / host_scale(speed, [window])
            for latency, window in zip(phase.latencies, phase.windows)
        ]
    else:
        latencies = [latency / phase_scale for latency in phase.latencies]
    p50 = median(latencies)
    p90, supported = tail_percentile(latencies, 0.9) if workload.tail_latency else (p50, False)
    measured_p50 = median(phase.latencies)
    measured_p90 = (
        tail_percentile(phase.latencies, 0.9)[0] if workload.tail_latency else measured_p50
    )
    rate = phase.schedules / phase.wall_s
    metrics = {
        "setup_s": setup_s / setup_scale,
        "solves_per_s": rate if workload.offered_rate_per_s else rate * phase_scale,
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "makespan_over_lb_ratio": geometric_mean(phase.ratios.values()),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    notes = {
        "latency_samples": len(phase.latencies),
        "latency_p90_supported": supported,
        "failed_share": phase.failed / phase.attempted,
        "distinct_results": len(phase.ratios),
        "timed_phase_s": phase.wall_s,
        "cpu_scale_setup": setup_scale,
        "cpu_scale_phase": phase_scale,
        "measured": {
            "setup_s": setup_s,
            "solves_per_s": rate,
            "latency_p50_s": measured_p50,
            "latency_p90_s": measured_p90,
        },
    }
    return metrics, notes


#: Timed in a fresh interpreter: importing everything a workload drives.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; began = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - began)"
)


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the driven layers."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True,
            text=True,
            check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return median(samples)


def time_setups(workload: Any, windows: List[Tuple[float, float]]) -> List[float]:
    """One round of timed set-ups; each one's interval goes to ``windows``."""
    setups: List[float] = []
    while len(setups) < SETUP_REPEATS or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPEATS
    ):
        began = time.perf_counter()
        workload.setup()
        ended = time.perf_counter()
        setups.append(ended - began)
        windows.append((began, ended))
    return setups


def run(args: argparse.Namespace, scratch: Path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    sys.path.insert(0, str(SRC))
    import workloads  # imports the repro layers it drives
    from cpuspeed import Samplers
    from gate import Gate
    from measure import Tracer

    if args.workload not in workloads.WORKLOADS:
        choices = ", ".join(sorted(workloads.WORKLOADS))
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {choices}")
    with open(GOLDEN, encoding="utf-8") as handle:
        gate = Gate(json.load(handle))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, scratch, gate)
    if workload.single_cpu:
        # A serial workload stays on one CPU, so that CPU's sampler alone
        # says how fast it ran.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_windows: List[Tuple[float, float]] = []
    with Samplers(os.sched_getaffinity(0)) as samplers:
        began = time.perf_counter()
        import_s = import_seconds()
        setup_windows.append((began, time.perf_counter()))
        setups = time_setups(workload, setup_windows)
        workload.prepare_reference()
        began = time.perf_counter()
        phase = workload.run(None, None)
        phase_window = (began, time.perf_counter())
        setups += time_setups(workload, setup_windows)
        speed = samplers.stop()
    setup_s = import_s + median(setups)
    metrics, notes = end_to_end(setup_s, setup_windows, phase, phase_window, speed, workload)
    notes.update(
        {
            "speed_samples": len(speed),
            "import_s": import_s,
            "setup_repeats_s": setups,
            "golden_checks": gate.golden_checked,
            "gate_checks": gate.checked,
            "environment": {
                "cpus": workloads.CPUS,
                "cpus_sampled": sorted(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "pool_workers": workload.workers,
                "generator_threads": workload.generator_threads,
                "offered_rate_per_s": workload.offered_rate_per_s,
                "seed": args.seed,
                "default_seed": DEFAULT_SEED,
                "held_out_seed": HELD_OUT_SEED,
            },
        }
    )
    failed = phase.failed
    layer_metrics: Dict[str, float] = {}
    layers: Dict[str, float] = {}
    if args.trace:
        workload.reset_for_trace()
        tracer = Tracer()
        workloads.install_probes(tracer)
        try:
            traced = workload.run(len(phase.latencies), tracer)
        finally:
            tracer.restore()
        failed += traced.failed
        extras = workload.traced_layers(tracer, traced, phase)
        layer_metrics, layers = layer_report(workload, tracer, traced, phase, extras)
        notes["replay"] = {key: value for key, value in extras.items() if key.startswith("replay.")}
        write_trace(args, tracer, layers)
    workload.close()
    stop_resource_tracker()
    notes["mismatches"] = gate.mismatches[:10]
    report = {
        "end_to_end": metrics,
        "per_layer": layer_metrics,
        "layers": layers,
        "attempted": phase.attempted,
        "failed": failed,
    }
    return report, notes


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared-memory use started.

    The program's shared-memory plane starts it; stopping it here makes the
    run end every process it caused, and any warnings it prints on exit
    land in the captured stderr.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def write_trace(args: argparse.Namespace, tracer: Any, layers: Dict[str, float]) -> None:
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "layers_self_s": layers,
                "counts": tracer.counts,
                "spans": [asdict(span) for span in tracer.spans],
            },
            handle,
        )


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not GOLDEN.is_file():
        print(f"perfbench: no repro source tree or golden file under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Capture fd 2 for the whole run: pool workers and the resource
    # tracker inherit it, so their tracebacks are counted too.
    capture = tempfile.TemporaryFile(dir=OUT)
    saved_stderr = os.dup(2)
    sys.stderr.flush()
    os.dup2(capture.fileno(), 2)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            report, notes = run(args, Path(scratch))
    finally:
        sys.stderr.flush()
        os.dup2(saved_stderr, 2)
        os.close(saved_stderr)
        capture.seek(0)
        captured = capture.read().decode("utf-8", "replace")
        capture.close()
        sys.stderr.write(captured)
    tracebacks = captured.count("Traceback (most recent call last)")
    notes["stderr_tracebacks"] = tracebacks
    if args.trace:
        report["per_layer"]["executor.stderr_tracebacks_count"] = tracebacks

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}")
    print(f"  trace: {args.trace}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    layers = report["layers"]
    if layers:
        dominant = max((layer for layer in layers if layer != "other"), key=layers.get)
        print(f"  dominant layer: {dominant}")
        for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
            print(f"  layer {layer:<20} {seconds:10.4f} s self")
    for table, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for name, unit in units:
            if name in report[table]:
                print(f"  {name:<36} {report[table][name]:.6g} {unit}")
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    units = dict(PER_LAYER if args.trace else END_TO_END)
    correct = report["failed"] == 0 and not notes["mismatches"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
