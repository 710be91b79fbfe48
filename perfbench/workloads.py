"""The benchmark's four workloads and the probes its traced runs install.

Each workload builds its inputs from its seed, sets up (timed separately
as ``setup_s``), pins a serial reference for results the golden file does
not cover, and then runs a timed phase.  Every result of the timed phase
goes through the correctness gate after the phase ends.

* ``cold-s1000`` -- repeated serial trimmed-grid ``best`` solves of a
  1000-core generator SOC, with every cache cleared before each solve, as
  a fresh ``repro solve`` process sees them.  The wrapper-curve kernel
  does most of the work and the executor is bypassed.
* ``warm-s1000-w2`` -- the 1000-core SOC of generator seed 1003, its cores
  in a seeded order, with warm curves and a warm 2-worker pool; full
  default-grid ``best`` solves.  Grid dedup/ordering, the
  executor fan-out and the scheduler event loop do the work; the curve
  kernel does none.
* ``paper-tables-w2`` -- the paper's protocol (Table 1 modes and the
  Table 2 width sweep) on the four ITC'02 SOCs at ``workers=2``: many
  small jobs and a pool refresh whenever the SOC changes.
* ``serve-open`` -- a paced open loop of ``paper`` and trimmed-``best``
  requests for a 200-core generator SOC, written as JSONL into the stream
  transport of a supervisor with a write-ahead journal.  Only this
  workload measures admission, journal appends, dedup and the wire
  protocol.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.pool
import os
import random
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import loadgen
from gate import Gate
from loadgen import Arrival, paced_offsets
from measure import Tracer, nearest_rank

import repro.core.grid_sweep as grid_sweep
import repro.core.lower_bounds as lower_bounds
import repro.core.rectangles as rectangles
import repro.core.scheduler as scheduler
import repro.engine.runner as runner
import repro.service.protocol as protocol
import repro.wrapper.curve as curve
from repro.analysis.experiments import TABLE2_WIDTHS, run_table1
from repro.analysis.perf import cold_reset, schedule_fingerprint
from repro.engine.api import parallel_tam_sweep
from repro.engine.executor import FlatExecutor, get_default_executor
from repro.schedule.schedule import TestSchedule
from repro.service.journal import EventJournal
from repro.service.supervisor import ServiceConfig, Supervisor
from repro.service.transport import serve_stream
from repro.soc.benchmarks import get_benchmark
from repro.soc.generator import GeneratorProfile, generate_soc
from repro.soc.soc import Soc
from repro.solvers import ScheduleRequest, Session
from repro.solvers.session import get_default_session

ITC02 = ("d695", "p22810", "p34392", "p93791")
TRIMMED_GRID: Dict[str, Any] = {"percents": (1, 25), "deltas": (0,), "slacks": (3, 6)}
WIDTH = 64
S1000_CORES = 1000
#: Generator seed of the golden ``s1000/scale/64`` entry.
GOLDEN_S1000_SEED = 1003

#: Pool workers and load threads never exceed the CPUs the process may use.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
POOL_WORKERS = max(1, min(2, CPUS))

#: serve-open: requests for a generated SOC of this many cores take 15-45 ms
#: each on a 2-CPU machine.  The shared host pauses a CPU for 1-16 ms about
#: 50 times a second; a request that long absorbs several pauses, while a
#: 2 ms request for an ITC'02 SOC either misses them or doubles, which put
#: the run-to-run spread of its p90 at 45%.
SERVE_CORES = 200
#: The serve-open SOC is fixed; the workload seed draws the arrivals and
#: the request mix, so seeds differ in traffic, not in the SOC served.
SERVE_SOC_SEED = 1003
#: One arrival every SERVE_GAP_S, each moved by a seeded uniform draw of up
#: to SERVE_JITTER of the gap: 100 requests in 15 s, so the p90 has ten
#: beyond it.  The gap is three times the slowest request, so requests do
#: not overlap; with Poisson arrivals the p90 depended on how many requests
#: happened to share the interpreter lock with another.
SERVE_GAP_S = 0.15
SERVE_JITTER = 0.1
SERVE_WIDTHS = range(8, 65)
#: Request kinds, slot by slot: a fresh ``best`` or ``paper`` request, or a
#: repeat of one of the last SERVE_REPEAT_WINDOW fresh ones (a dedup hit).
#: Each kind takes its fresh widths from the front of one fixed order of
#: SERVE_WIDTHS, so every seed sends the same fresh requests, only in
#: another order; in runs of up to 21 s they are distinct.  Sorted by
#: latency the repeats come first, then ``paper``, then ``best``: the p50
#: falls inside the ``paper`` requests and the p90 inside the ``best``
#: ones, not on the edge between two kinds.
SERVE_PATTERN = ("best", "paper", "repeat", "best", "paper", "best", "paper", "repeat", "best", "paper")
SERVE_REPEAT_WINDOW = 16
SERVE_QUEUE_LIMIT = 64
SERVE_MAX_INFLIGHT = 2

#: Layers a traced run attributes time to; everything else is ``other``.
NAMED_LAYERS = (
    "wrapper.curve",
    "core.rectangles",
    "solvers.session",
    "core.lower_bounds",
    "core.grid_sweep",
    "core.scheduler",
    "schedule.schedule",
    "engine.executor",
    "service.supervisor",
    "service.journal",
    "service.protocol",
)

clock = time.perf_counter


def generated_soc(seed: int, cores: int) -> Soc:
    return generate_soc(
        seed,
        name=f"s{cores}",
        profile=GeneratorProfile(min_cores=cores, max_cores=cores),
    )


def curve_counters() -> Tuple[int, int, int]:
    info = curve.curve_cache_info()
    return info.hits, info.misses, info.widths_computed


def add_curve_delta(tracer: Tracer, before: Tuple[int, int, int]) -> None:
    """Count the curve-cache work done since ``before`` (no clear between)."""
    names = ("curve.hits", "curve.misses", "curve.widths")
    for counter, old, new in zip(names, before, curve_counters()):
        tracer.add(counter, new - old)


def live_child_pids() -> Set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def own_and_child_pids() -> List[str]:
    return ["self"] + [str(pid) for pid in live_child_pids()]


def reset_peak_rss() -> None:
    """Restart the peak-RSS count (VmHWM) of this process and its live
    children at their current RSS, so that set-up and the serial reference
    pass do not count in the timed phase's peak."""
    for pid in own_and_child_pids():
        try:
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")
        except OSError:
            continue


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process plus its live children."""
    total_kb = 0
    for pid in own_and_child_pids():
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    if total_kb == 0:
        import resource

        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


@dataclass
class Outcome:
    """One result of the timed phase, checked by the gate after the phase.

    ``lower_bound`` is ``None`` for results that are not schedules (a
    Table 1 lower-bound cell); those are checked but have no quality ratio.
    """

    key: str
    makespan: int
    lower_bound: Optional[int]
    schedule: Optional[TestSchedule] = None


@dataclass
class Phase:
    """What one timed phase measured."""

    wall_s: float
    latencies: List[float]
    attempted: int
    failed: int
    schedules: int
    ratios: Dict[str, float]
    peak_rss_mb: float
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Start and end of each top-level call, beside ``latencies``; empty
    #: when the calls are too short to time the CPUs' speed during each.
    windows: List[Tuple[float, float]] = field(default_factory=list)


def quality_ratios(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """Makespan over lower bound per distinct result key."""
    return {o.key: o.makespan / o.lower_bound for o in outcomes if o.lower_bound}


@dataclass
class ExecutorTally:
    """Executor counters summed over the phase's top-level calls."""

    pool_starts: int = 0
    tasks: int = 0
    jobs: int = 0
    decomposed_jobs: int = 0
    retries: int = 0
    board_aborts: int = 0


class Workload:
    name = ""
    workers = 0
    generator_threads = 1
    offered_rate_per_s = 0.0
    #: Where the serial replay's scheduler time hides in the traced solve:
    #: the layer whose self time contains it and how many processes share it.
    scheduler_host: Optional[Tuple[str, int]] = None
    #: The timed phase ends only after whole rounds of this many calls, so
    #: every run has the same mix of call kinds.
    calls_per_round = 1
    #: Whether the timed phase always yields enough samples for a p90.
    tail_latency = False
    #: Whether all the work runs in this process, serially, so the run can
    #: stay on one CPU.
    single_cpu = False

    def __init__(self, seed: int, seconds: float, scratch: Path, gate: Gate) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.gate = gate

    def setup(self) -> None:
        """Build and warm what the timed phase uses, replacing whatever an
        earlier set-up built."""

    def prepare_reference(self) -> None:
        """Pin serial results for keys the golden file lacks (untimed)."""

    def reset_for_trace(self) -> None:
        """Restore the state the timed phase started from."""

    def traced_layers(self, tracer: Tracer, traced: Phase, untraced: Phase) -> Dict[str, float]:
        """Per-layer figures only this workload can produce."""
        return {}

    def close(self) -> None:
        cold_reset()

    # -- the closed loop of the batch workloads ----------------------------
    def before_op(self, index: int) -> None:
        """Untimed work before each top-level call."""

    def op(self, index: int) -> Tuple[List[Outcome], int]:
        """One top-level call: its outcomes and the schedules it completed."""
        raise NotImplementedError

    def run(self, count: Optional[int], tracer: Optional[Tracer]) -> Phase:
        """Timed phase: ``count`` calls, or whole rounds for ``seconds``."""
        latencies: List[float] = []
        windows: List[Tuple[float, float]] = []
        outcomes: List[Outcome] = []
        schedules = 0
        tally = ExecutorTally()
        seen_pids = live_child_pids()
        last_stats = get_default_executor().last_stats
        # Sampled after every call: a pool replaced by a later call is
        # counted while it was live, not summed with its successor.
        rss = 0.0
        reset_peak_rss()
        start = clock()
        while True:
            done = len(latencies)
            if count is not None:
                if done >= count:
                    break
            elif done and done % self.calls_per_round == 0 and clock() - start >= self.seconds:
                break
            self.before_op(done)
            began = clock()
            if tracer is None:
                results, completed = self.op(done)
            else:
                counters = curve_counters()
                tracer.set_request(f"{self.name}-op{done}")
                results, completed = tracer.call("op", "harness", self.op, done)
            ended = clock()
            latencies.append(ended - began)
            windows.append((began, ended))
            if tracer is not None:
                add_curve_delta(tracer, counters)
            outcomes.extend(results)
            schedules += completed
            rss = max(rss, peak_rss_mb())
            pids = live_child_pids()
            if pids - seen_pids:
                tally.pool_starts += 1
            seen_pids |= pids
            stats = get_default_executor().last_stats
            if stats is not None and stats is not last_stats:
                last_stats = stats
                tally.tasks += stats.tasks
                tally.jobs += stats.jobs
                tally.decomposed_jobs += stats.decomposed_jobs
                tally.retries += stats.retries
                tally.board_aborts += stats.board_aborts
        wall = clock() - start
        return Phase(
            wall_s=wall,
            latencies=latencies,
            attempted=len(outcomes),
            failed=self.check(outcomes),
            schedules=schedules,
            ratios=quality_ratios(outcomes),
            peak_rss_mb=rss,
            extra={"executor": tally, "outcomes": outcomes},
            windows=windows,
        )

    def check(self, outcomes: Sequence[Outcome]) -> int:
        """Gate every outcome; returns how many failed."""
        failed = 0
        for outcome in outcomes:
            fingerprint = schedule_fingerprint(outcome.schedule) if outcome.schedule else None
            if not self.gate.check(outcome.key, outcome.makespan, fingerprint):
                failed += 1
        return failed


# ----------------------------------------------------------------------
# Serial replay of a grid sweep (times the scheduler layer from outside)
# ----------------------------------------------------------------------
@dataclass
class Replay:
    schedule: TestSchedule
    run_seconds: List[float]
    pruned: int


def replay_sweep(soc: Soc, width: int, sets: Dict[str, Any], grid: Dict[str, Any]) -> Replay:
    """The serial sweep, driven through the public scheduler entry point.

    Same dedup, ordering, incumbent limit and lower-bound skip as the
    serial path of ``run_grid_sweep``, so its winner must fingerprint-equal
    the solve's.
    """
    base = scheduler.SchedulerConfig()
    percents = grid.get("percents", grid_sweep.DEFAULT_PERCENTS)
    deltas = grid.get("deltas", grid_sweep.DEFAULT_DELTAS)
    slacks = grid.get("slacks", grid_sweep.DEFAULT_SLACKS)
    runs = grid_sweep.dedupe_grid(soc, width, base, sets, percents, deltas, slacks)
    bound = lower_bounds.lower_bound(soc, width, base.max_core_width, rectangle_sets=sets)
    best: Optional[Tuple[int, int, TestSchedule]] = None
    seconds: List[float] = []
    pruned = 0
    for run in grid_sweep.order_runs_by_estimate(soc, sets, width, runs):
        if best is not None and best[0] <= bound and run.index > best[1]:
            continue
        config = replace(
            base,
            percent=run.point.percent,
            delta=run.point.delta,
            insertion_slack=run.point.slack,
        )
        began = clock()
        try:
            schedule: Optional[TestSchedule] = scheduler.run_paper_scheduler(
                soc,
                width,
                config=config,
                rectangle_sets=sets,
                preferred_widths=dict(zip(soc.core_names, run.preferred_widths)),
                makespan_limit=best[0] if best is not None else None,
            )
        except scheduler.MakespanLimitExceeded:
            schedule = None
            pruned += 1
        seconds.append(clock() - began)
        if schedule is not None and (best is None or (schedule.makespan, run.index) < best[:2]):
            best = (schedule.makespan, run.index, schedule)
    if best is None:
        raise AssertionError("the replay completed no run")
    return Replay(best[2], seconds, pruned)


# ----------------------------------------------------------------------
# The s1000 workloads
# ----------------------------------------------------------------------
class S1000Workload(Workload):
    grid: Dict[str, Any] = {}
    key = ""

    def generate(self) -> Soc:
        return generated_soc(self.seed, S1000_CORES)

    def build(self) -> None:
        self.soc = self.generate()
        self.request = ScheduleRequest(
            soc=self.soc, total_width=WIDTH, solver="best", options=dict(self.grid)
        )

    def solve(self, workers: int) -> Any:
        request = replace(self.request, options={**self.request.options, "workers": workers})
        return get_default_session().solve(request)

    def op(self, index: int) -> Tuple[List[Outcome], int]:
        result = self.solve(self.workers)
        bound = int(result.metadata["lower_bound"])
        return [Outcome(self.key, result.makespan, bound, result.schedule)], 1

    def traced_layers(self, tracer: Tracer, traced: Phase, untraced: Phase) -> Dict[str, float]:
        """The scheduler layer, from a serial replay of one traced solve."""
        sets = get_default_session().rectangle_sets(self.soc, WIDTH)
        replay = replay_sweep(self.soc, WIDTH, sets, self.grid)
        solved = traced.extra["outcomes"][0].schedule
        if schedule_fingerprint(replay.schedule) != schedule_fingerprint(solved):
            raise AssertionError("the serial replay's winner differs from the solve's")
        per_solve = sum(replay.run_seconds)
        solves = len(traced.latencies)
        return {
            "scheduler.run_s": per_solve * solves,
            "scheduler.run_p50_s": median(replay.run_seconds),
            "scheduler.runs_count": len(replay.run_seconds) * solves,
            "scheduler.pruned_share": replay.pruned / len(replay.run_seconds),
            "replay.per_solve_s": per_solve,
        }


class ColdS1000(S1000Workload):
    name = "cold-s1000"
    grid = TRIMMED_GRID
    single_cpu = True
    scheduler_host = ("core.grid_sweep", 1)

    def setup(self) -> None:
        cold_reset()
        self.build()
        golden = self.seed == GOLDEN_S1000_SEED
        self.key = "s1000/scale/64" if golden else f"s1000-{self.seed}/trimmed/64"

    def prepare_reference(self) -> None:
        if not self.gate.has_golden(self.key):
            cold_reset()
            result = self.solve(0)
            fingerprint = schedule_fingerprint(result.schedule)
            self.gate.record_reference(self.key, result.makespan, fingerprint)

    def before_op(self, index: int) -> None:
        cold_reset()


class WarmS1000W2(S1000Workload):
    name = "warm-s1000-w2"
    workers = POOL_WORKERS
    scheduler_host = ("engine.executor", POOL_WORKERS)

    def generate(self) -> Soc:
        """The golden s1000 SOC with its cores shuffled by the seed.

        A warm solve's cost depends on the SOC: full-grid solves of the
        SOCs of generator seeds 1003-1006 took 3.0-4.6 s, which spread ten
        runs by 17% of their median.  Core order leaves the makespan as it
        is and moved the cost of four orders by under 12%.
        """
        soc = generated_soc(GOLDEN_S1000_SEED, S1000_CORES)
        cores = list(soc.cores)
        random.Random(self.seed).shuffle(cores)
        return soc.with_cores(cores)

    def setup(self) -> None:
        cold_reset()
        self.build()
        self.key = f"s1000-{self.seed}/best/64"
        get_default_session().rectangle_sets(self.soc, WIDTH)
        # The first parallel solve starts the pool the timed solves reuse
        # and pays their one-off dispatch warm-up.
        self.solve(self.workers)

    def prepare_reference(self) -> None:
        began = clock()
        result = self.solve(0)
        self.serial_s = clock() - began
        fingerprint = schedule_fingerprint(result.schedule)
        self.gate.record_reference(self.key, result.makespan, fingerprint)

    def traced_layers(self, tracer: Tracer, traced: Phase, untraced: Phase) -> Dict[str, float]:
        layers = super().traced_layers(tracer, traced, untraced)
        parallel_s = median(untraced.latencies)
        layers["executor.parallel_efficiency_ratio"] = self.serial_s / (self.workers * parallel_s)
        layers["replay.serial_solve_s"] = self.serial_s
        return layers


# ----------------------------------------------------------------------
# The paper's protocol
# ----------------------------------------------------------------------
TABLE1_MODES = ("non_preemptive", "preemptive", "power_constrained")


class PaperTablesW2(Workload):
    name = "paper-tables-w2"
    workers = POOL_WORKERS

    def setup(self) -> None:
        cold_reset()
        self.socs = {name: get_benchmark(name) for name in ITC02}
        for soc in self.socs.values():
            get_default_session().rectangle_sets(soc, WIDTH)
        order = list(ITC02)
        random.Random(self.seed).shuffle(order)
        self.calls = [(name, table) for name in order for table in ("table1", "table2")]
        self.calls_per_round = len(self.calls)

    def table(self, name: str, table: str, workers: int) -> Tuple[List[Outcome], int]:
        soc = self.socs[name]
        if table == "table1":
            rows = run_table1(soc, workers=workers)
            outcomes = []
            for row in rows:
                prefix = f"{name}/table1/{row.width}"
                outcomes.append(Outcome(f"{prefix}/lower_bound", row.lower_bound, None))
                for mode in TABLE1_MODES:
                    makespan = getattr(row, mode)
                    outcomes.append(Outcome(f"{prefix}/{mode}", makespan, row.lower_bound))
            return outcomes, len(rows) * len(TABLE1_MODES)
        sweep = parallel_tam_sweep(soc, TABLE2_WIDTHS, workers=workers, solver="best")
        outcomes = [
            Outcome(f"{name}/table2_best/{width}", makespan, self.bounds[(name, width)])
            for width, makespan in zip(sweep.widths, sweep.testing_times)
        ]
        return outcomes, len(outcomes)

    def prepare_reference(self) -> None:
        self.bounds = {
            (name, width): lower_bounds.lower_bound(self.socs[name], width)
            for name in ITC02
            for width in TABLE2_WIDTHS
        }
        began = clock()
        for name, table in self.calls:
            outcomes, _ = self.table(name, table, 0)
            for outcome in outcomes:
                if not self.gate.has_golden(outcome.key):
                    self.gate.record_reference(outcome.key, outcome.makespan)
        self.serial_pass_s = clock() - began

    def op(self, index: int) -> Tuple[List[Outcome], int]:
        name, table = self.calls[index % len(self.calls)]
        return self.table(name, table, self.workers)

    def traced_layers(self, tracer: Tracer, traced: Phase, untraced: Phase) -> Dict[str, float]:
        passes = len(untraced.latencies) / len(self.calls)
        parallel_pass_s = sum(untraced.latencies) / passes
        efficiency = self.serial_pass_s / (self.workers * parallel_pass_s)
        return {"executor.parallel_efficiency_ratio": efficiency}


# ----------------------------------------------------------------------
# The service under open-loop load
# ----------------------------------------------------------------------
class ServeOpen(Workload):
    name = "serve-open"
    generator_threads = 2
    offered_rate_per_s = 1.0 / SERVE_GAP_S
    tail_latency = True

    def __init__(self, seed: int, seconds: float, scratch: Path, gate: Gate) -> None:
        super().__init__(seed, seconds, scratch, gate)
        self.soc = generated_soc(SERVE_SOC_SEED, SERVE_CORES)
        rng = random.Random(seed)
        self.specs: Dict[str, Tuple[int, str]] = {}
        lines: Dict[Tuple[int, str], str] = {}
        fresh: List[Tuple[int, str]] = []
        offsets = paced_offsets(rng, SERVE_GAP_S, seconds, SERVE_JITTER)
        kinds = [SERVE_PATTERN[index % len(SERVE_PATTERN)] for index in range(len(offsets))]
        order = random.Random(SERVE_SOC_SEED).sample(SERVE_WIDTHS, len(SERVE_WIDTHS))
        widths: Dict[str, List[int]] = {}
        for kind in ("best", "paper"):
            count = kinds.count(kind)
            widths[kind] = [order[slot % len(order)] for slot in range(count)]
            rng.shuffle(widths[kind])
        self.arrivals_path = scratch / "arrivals.jsonl"
        with open(self.arrivals_path, "w", encoding="utf-8") as arrivals:
            for index, (due, kind) in enumerate(zip(offsets, kinds)):
                if kind == "repeat":
                    spec = rng.choice(fresh[-SERVE_REPEAT_WINDOW:])
                else:
                    spec = (widths[kind].pop(), kind)
                    fresh.append(spec)
                if spec not in lines:
                    lines[spec] = json.dumps(self.request(spec).to_dict(), separators=(",", ":"))
                request_id = f"s{seed}-{index}"
                self.specs[request_id] = spec
                line = f'{{"op":"solve","id":"{request_id}","request":{lines[spec]}}}\n'
                arrivals.write(json.dumps(asdict(Arrival(due, request_id, line))) + "\n")
        self.supervisor: Optional[Supervisor] = None
        self.setups = 0

    def request(self, spec: Tuple[int, str]) -> ScheduleRequest:
        width, solver = spec
        options = TRIMMED_GRID if solver == "best" else {}
        return ScheduleRequest(soc=self.soc, total_width=width, solver=solver, options=options)

    def key(self, spec: Tuple[int, str]) -> str:
        width, solver = spec
        return f"{self.soc.name}-{SERVE_SOC_SEED}/{solver}/{width}"

    def setup(self) -> None:
        if self.supervisor is not None:
            self.supervisor.close()
        cold_reset()
        get_default_session().rectangle_sets(self.soc, WIDTH)
        self.setups += 1
        self.journal_path = self.scratch / f"journal-{self.setups}.jsonl"
        config = ServiceConfig(
            max_inflight=SERVE_MAX_INFLIGHT,
            queue_limit=SERVE_QUEUE_LIMIT,
            workers=0,
            journal_path=self.journal_path,
        )
        self.supervisor = Supervisor(config=config).start()

    def reset_for_trace(self) -> None:
        self.setup()

    def prepare_reference(self) -> None:
        self.bounds: Dict[int, int] = {}
        session = Session()
        for spec in sorted(set(self.specs.values())):
            width = spec[0]
            self.bounds[width] = lower_bounds.lower_bound(self.soc, width)
            result = session.solve(self.request(spec))
            fingerprint = schedule_fingerprint(result.schedule)
            self.gate.record_reference(self.key(spec), result.makespan, fingerprint)

    def run(self, count: Optional[int], tracer: Optional[Tracer]) -> Phase:
        """One pass of the arrival schedule; ``count`` is unused."""
        supervisor = self.supervisor
        assert supervisor is not None
        self.supervisor = None
        started: Dict[str, float] = {}

        def on_started(request_id: str) -> None:
            started[request_id] = clock()
            if tracer is not None:
                tracer.set_request(request_id)

        supervisor.started_hook = on_started
        record_path = self.scratch / f"record-{self.setups}.json"
        counters = curve_counters()
        reset_peak_rss()
        # The client runs in its own process, so its timestamps do not wait
        # for this process's interpreter lock.
        client = subprocess.Popen(
            [sys.executable, loadgen.__file__, str(self.arrivals_path), str(record_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            encoding="utf-8",
        )
        try:
            serve_stream(
                supervisor, client.stdout, client.stdin, client="perfbench", drain_timeout=120.0
            )
            client.stdin.close()
            client.wait(timeout=120.0)
        finally:
            if client.poll() is None:
                client.kill()
                client.wait()
            client.stdout.close()
        if client.returncode != 0:
            raise RuntimeError(f"the load generator exited with {client.returncode}")
        with open(record_path, encoding="utf-8") as handle:
            record = loadgen.LoadRecord(**json.load(handle))
        if tracer is not None:
            add_curve_delta(tracer, counters)
        stats = supervisor.stats()
        rss = peak_rss_mb()
        supervisor.close()

        outcomes: List[Outcome] = []
        latencies: List[float] = []
        failed = 0
        for request_id, spec in self.specs.items():
            message = record.messages.get(request_id)
            if message is None or message.get("event") != "result":
                failed += 1
                continue
            result = message["result"]
            outcomes.append(
                Outcome(
                    self.key(spec),
                    int(result["makespan"]),
                    self.bounds[spec[0]],
                    TestSchedule.from_dict(result["schedule"]),
                )
            )
            latencies.append(record.replies[request_id] - record.due[request_id])
        failed += self.check(outcomes)
        last_reply = max(record.replies.values(), default=record.end)
        return Phase(
            wall_s=last_reply - record.start,
            latencies=latencies,
            attempted=len(self.specs),
            failed=failed,
            schedules=len(outcomes),
            ratios=quality_ratios(outcomes),
            peak_rss_mb=rss,
            extra={
                "record": record,
                "started": started,
                "stats": stats,
                "journal_bytes": self.journal_path.stat().st_size,
            },
        )

    def traced_layers(self, tracer: Tracer, traced: Phase, untraced: Phase) -> Dict[str, float]:
        record = traced.extra["record"]
        started = traced.extra["started"]
        stats = traced.extra["stats"]
        submitted = {span.request: span.start for span in tracer.spans_named("Supervisor.submit")}
        waits = [started[rid] - submitted[rid] for rid in started if rid in submitted]
        solves = [record.replies[rid] - started[rid] for rid in started if rid in record.replies]
        deduped = stats.get("dedup_cached", 0) + stats.get("dedup_coalesced", 0)
        lags = untraced.extra["record"].lags()
        return {
            "service.queue_wait_p50_s": median(waits) if waits else 0.0,
            "service.queue_wait_p90_s": nearest_rank(waits, 0.9) if waits else 0.0,
            "service.solve_p50_s": median(solves) if solves else 0.0,
            "service.max_queue_depth_count": stats.get("max_queue_depth", 0),
            "service.dedup_hit_ratio": deduped / max(1, stats.get("completed", 0)),
            "service.rejected_count": stats.get("rejected", 0),
            "journal.records_count": stats.get("journal_records", 0),
            "journal.request_bytes": traced.extra["journal_bytes"] / traced.attempted,
            "loadgen.lag_p90_s": nearest_rank(lags, 0.9) if lags else 0.0,
        }


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    ColdS1000.name: ColdS1000,
    WarmS1000W2.name: WarmS1000W2,
    PaperTablesW2.name: PaperTablesW2,
    ServeOpen.name: ServeOpen,
}


# ----------------------------------------------------------------------
# Probes of the traced run
# ----------------------------------------------------------------------
def install_probes(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans."""
    modules = [
        module for name, module in sys.modules.items() if name.startswith("repro") and module
    ]

    def count_segments(schedule: TestSchedule, *args: Any, **kwargs: Any) -> None:
        tracer.add("schedule.segments", len(schedule.segments))

    def tag_message(supervisor: Supervisor, message: Any, *args: Any, **kwargs: Any) -> None:
        tracer.set_request(str(message.get("id", "")))

    def count_sweep(outcome: Any) -> None:
        tracer.add("grid.sweeps")
        tracer.add("grid.points", outcome.grid_points)
        tracer.add("grid.unique_runs", outcome.unique_runs)
        tracer.add("grid.early_exits", int(outcome.early_exit))

    functions = (
        (curve, "wrapper_curve", "wrapper.curve"),
        (rectangles, "build_rectangle_sets", "core.rectangles"),
        (rectangles, "resolve_rectangle_sets", "core.rectangles"),
        (lower_bounds, "lower_bound", "core.lower_bounds"),
        (grid_sweep, "dedupe_grid", "core.grid_sweep"),
        (grid_sweep, "order_runs_by_estimate", "core.grid_sweep"),
        (scheduler, "run_paper_scheduler", "core.scheduler"),
        (runner, "run_jobs", "engine.executor"),
        (protocol, "encode_message", "service.protocol"),
        (protocol, "parse_client_line", "service.protocol"),
    )
    for module, attribute, layer in functions:
        tracer.patch(module, attribute, attribute, layer, modules)
    tracer.patch(
        grid_sweep, "run_grid_sweep", "run_grid_sweep", "core.grid_sweep", modules,
        after=count_sweep,
    )
    methods = (
        (Session, "rectangle_sets", "core.rectangles"),
        (Session, "solve", "solvers.session"),
        (FlatExecutor, "run_jobs", "engine.executor"),
        (FlatExecutor, "run_grid_runs", "engine.executor"),
        (multiprocessing.pool.Pool, "__init__", "engine.executor"),
        (Supervisor, "submit", "service.supervisor"),
        (EventJournal, "append", "service.journal"),
    )
    for owner, attribute, layer in methods:
        tracer.patch(owner, attribute, f"{owner.__name__}.{attribute}", layer)
    tracer.patch(
        TestSchedule, "validate", "TestSchedule.validate", "schedule.schedule",
        before=count_segments,
    )
    tracer.patch(
        Supervisor, "process", "Supervisor.process", "service.supervisor", before=tag_message
    )
