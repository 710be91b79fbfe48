"""Perf-trajectory harness: machine-readable timing suites (``repro bench``).

Every PR that touches a hot path should leave a comparable baseline behind.
The three suites here emit JSON reports (``BENCH_<suite>.json``) with

* **per-phase wall time** -- curve construction vs. scheduling, cold vs.
  warm, minimum over ``repeats`` runs so scheduler noise does not swamp the
  signal;
* **cache statistics** -- the wrapper-curve kernel memo
  (:func:`repro.wrapper.curve.curve_cache_info`) and the solver session's
  rectangle cache;
* **schedule makespans and fingerprints for integrity** -- every timing run
  also records what it computed, so a "faster" run that silently changed
  results is caught by :func:`check_golden` against a checked-in golden
  file (CI runs this on every push).

Suites
------
``curves``
    Per-core wrapper-curve construction timings (cold and warm) plus a
    quick ``paper``-solver integrity solve per SOC.
``solve``
    The headline number: a **cold** full pass -- every registered solver x
    SOC x TAM width on a fresh session with an empty curve cache -- split
    into a curve-construction phase and a scheduling phase, plus a warm
    repeat pass.  Also measures the ``best_full`` headline: the full
    default-grid ``best`` sweep on p93791 at W=64, once through the
    deduplicated/pruned grid-sweep subsystem and once through the
    straightforward reference triple loop, reporting the speedup (the two
    must produce bit-identical schedules).
``sweep``
    The Figure 9 ``T(W)`` / ``D(W)`` sweep on the parallel sweep engine
    (serial path), cold and warm -- plus the flattened-executor headline
    phases: ``table1_best`` (the full Table 1 protocol, every cell one
    ``best`` job) and ``table2_best`` (the Table 2 width sweep with the
    ``best`` solver per width), each measured cold at ``workers=0`` and
    ``workers=4`` with the results asserted identical across worker
    counts and recorded for the golden check.
``scale``
    The committed size curve: one cold trimmed ``best`` sweep per SOC --
    the ITC'02 pair {d695, p93791} plus the deterministic synthetic 100-
    and 1000-core generator SOCs (``s100``/``s1000``) -- timed serially and
    recorded for the golden check.  A ``best`` solve's grid always runs in
    the calling process, so the suite has no worker axis.
``serve``
    The scheduling service under load: a burst of ``paper``-solver
    requests (with deliberate duplicates) driven through an in-process
    :class:`~repro.service.supervisor.Supervisor`, reporting throughput,
    submit-to-result latency percentiles, peak queue depth (the
    backpressure signal) and dedup/coalescing hit counts.  Every unique
    request's served result is recorded under the usual
    ``{soc}/paper/{width}`` golden keys, so a faster service that serves
    different schedules is caught like any other perf regression.

The standalone entry point ``benchmarks/harness.py`` and the ``repro bench``
CLI subcommand are thin wrappers over :func:`run_suite`.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.grid_sweep import run_best_schedule_reference, run_grid_sweep
from repro.core.scheduler import SchedulerConfig
from repro.schedule.schedule import TestSchedule
from repro.soc.benchmarks import get_benchmark
from repro.solvers import ScheduleRequest, Session
from repro.wrapper.curve import clear_curve_cache, curve_cache_info, wrapper_curve

SUITES = ("curves", "solve", "sweep", "scale", "serve")

#: SOCs and TAM widths of the ``solve`` suite's cold full pass (the full
#: registered ITC'02 set since PR 4).
SOLVE_SOCS: Tuple[str, ...] = ("d695", "p93791", "p22810", "p34392")
SOLVE_WIDTHS: Tuple[int, ...] = (16, 32, 64)

#: The headline measurement: a full default-grid ``best`` sweep, cold.
BEST_FULL_SOC = "p93791"
BEST_FULL_WIDTH = 64

#: Trimmed grid for the "best" solver so one pass stays CI-sized (same
#: trim as benchmarks/bench_solver_matrix.py).
SOLVE_OPTIONS: Dict[str, Dict[str, Any]] = {
    "best": {"percents": (1, 25), "deltas": (0,), "slacks": (3, 6)}
}

DEFAULT_MAX_WIDTH = 64


def schedule_fingerprint(schedule: Optional[TestSchedule]) -> Optional[str]:
    """Order-sensitive SHA-256 of a schedule's segments.

    Two schedules fingerprint equal iff they are bit-identical (same
    segments, same order, same widths); used to pin "faster" against
    "still computes the same thing".
    """
    if schedule is None:
        return None
    payload = repr(
        [(s.core, s.start, s.end, s.width) for s in schedule.segments]
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def cold_reset() -> None:
    """Drop every per-process wrapper cache for a deterministic cold start.

    Clears the curve kernel memo, the process-wide default solver
    session's rectangle cache (the sweep engine solves through that
    session, and its cached ``RectangleSet`` objects embed already-built
    curves, so leaving it warm would let a "cold" run skip all
    wrapper-design work) *and* the flat executor's persistent worker pool,
    so parallel measurements pay their pool spin-up like a fresh process
    would.
    """
    from repro.engine.executor import close_default_executor
    from repro.solvers.session import get_default_session

    clear_curve_cache()
    get_default_session().clear_cache()
    close_default_executor()


def _meta(suite: str) -> Dict[str, Any]:
    return {
        "suite": suite,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "schema_version": 1,
    }


def _cache_stats(session: Optional[Session] = None) -> Dict[str, Any]:
    info = curve_cache_info()
    stats: Dict[str, Any] = {
        "curve": {
            "hits": info.hits,
            "misses": info.misses,
            "cores": info.cores,
            "widths_computed": info.widths_computed,
        }
    }
    if session is not None:
        session_info = session.cache_info()
        stats["session"] = {
            "hits": session_info.hits,
            "misses": session_info.misses,
            "entries": session_info.entries,
        }
    return stats


def _integrity_solves(
    session: Session, soc_names: Sequence[str], widths: Sequence[int]
) -> Tuple[Dict[str, int], Dict[str, str]]:
    """``paper``-solver makespans/fingerprints used for golden comparisons."""
    makespans: Dict[str, int] = {}
    fingerprints: Dict[str, str] = {}
    for soc_name in soc_names:
        soc = get_benchmark(soc_name)
        for width in widths:
            result = session.solve(
                ScheduleRequest(soc=soc, total_width=width, solver="paper")
            )
            key = f"{soc_name}/paper/{width}"
            makespans[key] = result.makespan
            fingerprints[key] = schedule_fingerprint(result.schedule)
    return makespans, fingerprints


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------
def run_curves_suite(
    soc_names: Sequence[str] = ("d695",),
    max_width: int = DEFAULT_MAX_WIDTH,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Per-core wrapper-curve construction timings, cold and warm."""
    cores_report: List[Dict[str, Any]] = []
    cold_totals: Dict[str, float] = {}
    warm_totals: Dict[str, float] = {}
    for soc_name in soc_names:
        soc = get_benchmark(soc_name)
        best_cold: Dict[str, float] = {}
        for _ in range(max(1, repeats)):
            cold_reset()
            for core in soc.cores:
                started = time.perf_counter()
                wrapper_curve(core, max_width)
                elapsed = time.perf_counter() - started
                if core.name not in best_cold or elapsed < best_cold[core.name]:
                    best_cold[core.name] = elapsed
        warm_total = 0.0
        for core in soc.cores:
            started = time.perf_counter()
            curve = wrapper_curve(core, max_width)
            warm = time.perf_counter() - started
            warm_total += warm
            cores_report.append(
                {
                    "soc": soc_name,
                    "core": core.name,
                    "cold_seconds": best_cold[core.name],
                    "warm_seconds": warm,
                    "pareto_points": len(curve.pareto_widths),
                    "max_pareto_width": curve.max_pareto_width,
                    "min_time": curve.min_time,
                }
            )
        cold_totals[soc_name] = sum(best_cold.values())
        warm_totals[soc_name] = warm_total
    session = Session()
    makespans, fingerprints = _integrity_solves(session, soc_names, SOLVE_WIDTHS)
    return {
        **_meta("curves"),
        "socs": list(soc_names),
        "max_width": max_width,
        "repeats": repeats,
        "phases": {
            "curve_cold_seconds": cold_totals,
            "curve_warm_seconds": warm_totals,
        },
        "cores": cores_report,
        "cache": _cache_stats(session),
        "makespans": makespans,
        "fingerprints": fingerprints,
    }


def _solve_pass(
    session: Session, soc_names: Sequence[str], widths: Sequence[int]
) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """One full solver x SOC x width pass; returns (cells, phase timings)."""
    cells: Dict[str, Any] = {}
    curve_seconds = 0.0
    solve_seconds = 0.0
    for soc_name in soc_names:
        soc = get_benchmark(soc_name)
        started = time.perf_counter()
        session.rectangle_sets(soc, DEFAULT_MAX_WIDTH)
        curve_seconds += time.perf_counter() - started
        for solver in session.solvers():
            options = SOLVE_OPTIONS.get(solver, {})
            for width in widths:
                key = f"{soc_name}/{solver}/{width}"
                started = time.perf_counter()
                try:
                    result = session.solve(
                        ScheduleRequest(
                            soc=soc,
                            total_width=width,
                            solver=solver,
                            options=options,
                        )
                    )
                    cells[key] = {
                        "makespan": result.makespan,
                        "fingerprint": schedule_fingerprint(result.schedule),
                    }
                except ValueError as error:  # solver refusals are contractual
                    cells[key] = {"refused": str(error)}
                solve_seconds += time.perf_counter() - started
    return cells, {"curves": curve_seconds, "solve": solve_seconds}


def _best_full_measurement(repeats: int) -> Dict[str, Any]:
    """Cold full-grid ``best`` sweep on p93791/W=64: optimized vs reference.

    Both paths run on freshly reset caches with pre-built rectangle sets
    (so the number isolates grid-sweep work from curve construction, like
    the matrix's ``solve`` phase).  The reference is the straightforward
    serial triple loop over the full grid with the re-scanning candidate
    selection (``use_candidate_heaps=False``), and must produce a
    bit-identical schedule.
    """
    soc = get_benchmark(BEST_FULL_SOC)
    reference_config = SchedulerConfig(use_candidate_heaps=False)
    optimized_best: Optional[float] = None
    reference_best: Optional[float] = None
    outcome = None
    reference_schedule = None
    for _ in range(max(1, repeats)):
        cold_reset()
        session = Session()
        sets = session.rectangle_sets(soc, DEFAULT_MAX_WIDTH)
        started = time.perf_counter()
        outcome = run_grid_sweep(soc, BEST_FULL_WIDTH, rectangle_sets=sets)
        elapsed = time.perf_counter() - started
        optimized_best = elapsed if optimized_best is None else min(optimized_best, elapsed)

        cold_reset()
        session = Session()
        sets = session.rectangle_sets(soc, DEFAULT_MAX_WIDTH)
        started = time.perf_counter()
        reference_schedule, _ = run_best_schedule_reference(
            soc, BEST_FULL_WIDTH, rectangle_sets=sets, config=reference_config
        )
        elapsed = time.perf_counter() - started
        reference_best = elapsed if reference_best is None else min(reference_best, elapsed)
    assert outcome is not None and reference_schedule is not None
    if schedule_fingerprint(reference_schedule) != schedule_fingerprint(outcome.schedule):
        raise AssertionError(
            "grid sweep and reference best solver produced different schedules"
        )
    key = f"{BEST_FULL_SOC}/best-full/{BEST_FULL_WIDTH}"
    return {
        "phases": {
            "reference_seconds": reference_best,
            "optimized_seconds": optimized_best,
            "speedup": reference_best / optimized_best if optimized_best else 0.0,
        },
        "makespans": {key: outcome.makespan},
        "fingerprints": {key: schedule_fingerprint(outcome.schedule)},
        "sweep": outcome.metadata(),
    }


def run_solve_suite(
    soc_names: Sequence[str] = SOLVE_SOCS,
    widths: Sequence[int] = SOLVE_WIDTHS,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Cold full pass over every registered solver, plus a warm repeat."""
    cells: Optional[Dict[str, Any]] = None
    cold_runs: List[Dict[str, float]] = []
    warm_runs: List[Dict[str, float]] = []
    session: Optional[Session] = None
    for _ in range(max(1, repeats)):
        cold_reset()
        session = Session()
        pass_cells, cold_phases = _solve_pass(session, soc_names, widths)
        warm_cells, warm_phases = _solve_pass(session, soc_names, widths)
        if cells is not None and pass_cells != cells:
            raise AssertionError("solve suite is non-deterministic across runs")
        if pass_cells != warm_cells:
            raise AssertionError("warm pass changed solver results")
        cells = pass_cells
        cold_runs.append(cold_phases)
        warm_runs.append(warm_phases)

    def best(runs: List[Dict[str, float]]) -> Dict[str, float]:
        total = min(sum(run.values()) for run in runs)
        keys = runs[0].keys()
        return {
            **{key: min(run[key] for run in runs) for key in keys},
            "total": total,
        }

    assert cells is not None and session is not None
    makespans = {
        key: cell["makespan"] for key, cell in cells.items() if "makespan" in cell
    }
    fingerprints = {
        key: cell["fingerprint"]
        for key, cell in cells.items()
        if cell.get("fingerprint")
    }
    refusals = {
        key: cell["refused"] for key, cell in cells.items() if "refused" in cell
    }
    # Snapshot the matrix's cache statistics before the best_full phase
    # (whose cold resets would otherwise clobber the process-wide curve
    # cache the report describes).
    cache_stats = _cache_stats(session)
    best_full = _best_full_measurement(repeats)
    makespans.update(best_full["makespans"])
    fingerprints.update(best_full["fingerprints"])
    return {
        **_meta("solve"),
        "socs": list(soc_names),
        "widths": list(widths),
        "repeats": repeats,
        "solver_options": {k: {n: list(v) for n, v in o.items()} for k, o in SOLVE_OPTIONS.items()},
        "phases": {
            "cold": best(cold_runs),
            "warm": best(warm_runs),
            "best_full": best_full["phases"],
        },
        "best_full_sweep": best_full["sweep"],
        "cache": cache_stats,
        "makespans": makespans,
        "fingerprints": fingerprints,
        "refusals": refusals,
    }


#: Worker count of the sweep suite's flattened-executor table phases (the
#: acceptance configuration of the flat-executor PR).
TABLE_WORKERS = 4


def _timed_cold(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Min-of-``repeats`` cold wall time of ``fn()`` plus its last result."""
    best: Optional[float] = None
    value = None
    for _ in range(max(1, repeats)):
        cold_reset()
        started = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    cold_reset()  # do not leak a warm pool into the next measurement
    assert best is not None  # range(max(1, repeats)) ran at least once
    return best, value


def _table_best_measurements(
    soc_name: str, repeats: int
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, int]]:
    """The flattened-executor headline: Tables 1 and 2 with the best solver.

    Each phase is measured cold (empty caches, no pool) at ``workers=0``
    and ``workers=TABLE_WORKERS``; the row values / sweep curves must be
    identical across worker counts (the executor's bit-identity contract)
    and are recorded for the golden check.
    """
    import warnings as warnings_module

    from repro.analysis.experiments import TABLE2_WIDTHS, run_table1
    from repro.engine.api import parallel_tam_sweep

    soc = get_benchmark(soc_name)
    phases: Dict[str, Dict[str, Any]] = {}
    makespans: Dict[str, int] = {}

    def timed_flat(fn: Callable[[], Any]) -> Tuple[float, Any, bool]:
        """Cold-time a parallel run, recording whether it degraded.

        Without the marker a pool-less sandbox would silently label a
        serial measurement ``flat_seconds`` and the report would claim a
        parallel-vs-serial comparison that never happened.
        """
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always", RuntimeWarning)
            seconds, value = _timed_cold(fn, repeats)
        degraded = any(
            "degrading to the serial" in str(entry.message) for entry in caught
        )
        return seconds, value, degraded

    serial_seconds, serial_rows = _timed_cold(
        lambda: run_table1(soc, workers=0), repeats
    )
    flat_seconds, flat_rows, degraded = timed_flat(
        lambda: run_table1(soc, workers=TABLE_WORKERS)
    )
    if flat_rows != serial_rows:
        raise AssertionError("table1_best rows differ across worker counts")
    phases[f"table1_best/{soc_name}"] = {
        "serial_seconds": serial_seconds,
        "flat_seconds": flat_seconds,
        "workers": TABLE_WORKERS,
        "degraded_to_serial": degraded,
    }
    for row in serial_rows:
        makespans[f"{soc_name}/table1/{row.width}/lower_bound"] = row.lower_bound
        makespans[f"{soc_name}/table1/{row.width}/non_preemptive"] = row.non_preemptive
        makespans[f"{soc_name}/table1/{row.width}/preemptive"] = row.preemptive
        makespans[
            f"{soc_name}/table1/{row.width}/power_constrained"
        ] = row.power_constrained

    serial_seconds, serial_sweep = _timed_cold(
        lambda: parallel_tam_sweep(soc, TABLE2_WIDTHS, workers=0, solver="best"),
        repeats,
    )
    flat_seconds, flat_sweep, degraded = timed_flat(
        lambda: parallel_tam_sweep(
            soc, TABLE2_WIDTHS, workers=TABLE_WORKERS, solver="best"
        )
    )
    if flat_sweep != serial_sweep:
        raise AssertionError("table2_best sweep differs across worker counts")
    phases[f"table2_best/{soc_name}"] = {
        "serial_seconds": serial_seconds,
        "flat_seconds": flat_seconds,
        "workers": TABLE_WORKERS,
        "degraded_to_serial": degraded,
    }
    for width, testing_time in zip(serial_sweep.widths, serial_sweep.testing_times):
        makespans[f"{soc_name}/table2_best/{width}"] = testing_time
    return phases, makespans


def run_sweep_suite(
    soc_names: Sequence[str] = ("d695",),
    min_width: int = 4,
    max_width: int = 80,
    step: int = 2,
    repeats: int = 2,
) -> Dict[str, Any]:
    """The Figure 9 ``T(W)``/``D(W)`` sweep plus the flat-executor tables.

    The classic cold/warm Figure 9 measurement (serial engine) is followed
    by the ``table1_best``/``table2_best`` phases: the full Table 1 and
    Table 2 protocols with the ``best`` solver, serial vs. the flattened
    executor at ``workers=4``, results asserted identical and recorded in
    the report's makespans for ``--check-golden``.
    """
    from repro.engine.api import parallel_tam_sweep

    widths = tuple(range(min_width, max_width + 1, step))
    timings: Dict[str, Dict[str, Any]] = {}
    makespans: Dict[str, int] = {}
    for soc_name in soc_names:
        soc = get_benchmark(soc_name)
        cold_best: Optional[float] = None
        sweep = None
        for _ in range(max(1, repeats)):
            cold_reset()
            started = time.perf_counter()
            sweep = parallel_tam_sweep(soc, widths, workers=0)
            elapsed = time.perf_counter() - started
            cold_best = elapsed if cold_best is None else min(cold_best, elapsed)
        started = time.perf_counter()
        warm_sweep = parallel_tam_sweep(soc, widths, workers=0)
        warm = time.perf_counter() - started
        assert sweep is not None
        if tuple(warm_sweep.testing_times) != tuple(sweep.testing_times):
            raise AssertionError("warm sweep changed results")
        timings[soc_name] = {"cold_seconds": cold_best, "warm_seconds": warm}
        for width, testing_time in zip(sweep.widths, sweep.testing_times):
            makespans[f"{soc_name}/sweep/{width}"] = testing_time
    for soc_name in soc_names:
        table_phases, table_makespans = _table_best_measurements(soc_name, repeats)
        timings.update(table_phases)
        makespans.update(table_makespans)
    return {
        **_meta("sweep"),
        "socs": list(soc_names),
        "widths": list(widths),
        "repeats": repeats,
        "table_workers": TABLE_WORKERS,
        "phases": timings,
        "cache": _cache_stats(),
        "makespans": makespans,
    }


#: SOCs of the scale suite: the ITC'02 pair the paper evaluates plus two
#: deterministic synthetic generator SOCs sized to stress dispatch (a
#: 1000-core SOC pickles a 1000-entry preferred-width vector per task).
SCALE_SOCS: Tuple[str, ...] = ("d695", "p93791", "s100", "s1000")

#: Synthetic scale SOCs: ``name -> (generator seed, core count)``.  These
#: are resolved here rather than registered as benchmarks -- the benchmark
#: registry is the paper's evaluation set, not a grab-bag of fixtures.
SCALE_SYNTHETIC: Dict[str, Tuple[int, int]] = {
    "s100": (1002, 100),
    "s1000": (1003, 1000),
}

#: Per-SOC TAM width of the scale measurement (default 64).
SCALE_WIDTHS: Dict[str, int] = {"d695": 32}
SCALE_DEFAULT_WIDTH = 64

#: Trimmed grid so one scale cell stays CI-sized (8 runs per sweep); the
#: same trim as the solve suite's ``best`` matrix cell.
SCALE_OPTIONS: Dict[str, Any] = {
    "percents": (1, 25),
    "deltas": (0,),
    "slacks": (3, 6),
}


def scale_soc(name: str):
    """Resolve a scale-suite SOC: benchmark name or synthetic ``s<cores>``."""
    spec = SCALE_SYNTHETIC.get(name)
    if spec is None:
        return get_benchmark(name)
    seed, cores = spec
    from repro.soc.generator import GeneratorProfile, generate_soc

    return generate_soc(
        seed, name=name, profile=GeneratorProfile(min_cores=cores, max_cores=cores)
    )


def run_scale_suite(
    soc_names: Optional[Sequence[str]] = None,
    repeats: int = 2,
) -> Dict[str, Any]:
    """Cold trimmed ``best`` sweeps from 10 to 1000 cores, golden-checked.

    Every measurement is cold (empty caches); each SOC's makespan and
    fingerprint go into the golden sections under ``{soc}/scale/{width}``
    keys and its wall time into ``scale/{soc}/serial``.
    """
    from repro.solvers.session import get_default_session

    names = tuple(soc_names or SCALE_SOCS)
    phases: Dict[str, Dict[str, Any]] = {}
    makespans: Dict[str, int] = {}
    fingerprints: Dict[str, str] = {}
    for soc_name in names:
        request = ScheduleRequest(
            soc=scale_soc(soc_name),
            total_width=SCALE_WIDTHS.get(soc_name, SCALE_DEFAULT_WIDTH),
            solver="best",
            options=SCALE_OPTIONS,
        )
        seconds, result = _timed_cold(
            lambda: get_default_session().solve(request), repeats
        )
        key = f"{soc_name}/scale/{request.total_width}"
        makespans[key] = result.makespan
        fingerprints[key] = schedule_fingerprint(result.schedule)
        phases[f"scale/{soc_name}/serial"] = {"seconds": seconds}
    return {
        **_meta("scale"),
        "socs": list(names),
        "repeats": repeats,
        "grid": {name: list(value) for name, value in SCALE_OPTIONS.items()},
        "phases": phases,
        "cache": _cache_stats(),
        "makespans": makespans,
        "fingerprints": fingerprints,
    }


def _percentile(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    index = int(round(quantile * (len(sorted_values) - 1)))
    return sorted_values[index]


def run_serve_suite(
    soc_names: Optional[Sequence[str]] = None,
    widths: Sequence[int] = SOLVE_WIDTHS,
    duplicates: int = 3,
) -> Dict[str, Any]:
    """Throughput/latency/queue-depth of the scheduling service under load.

    Submits ``duplicates`` identically-fingerprinted ``paper`` requests
    per (SOC, width) cell in one burst through an in-process supervisor
    (two worker threads, serial solves), then drains.  The duplicate
    traffic is the point: one copy solves fresh, the rest must be served
    by in-flight coalescing or the dedup cache, and the report records
    how many were.  Latency is submit-to-result per request; integrity
    comes from the served schedules under ``{soc}/paper/{width}`` keys.
    """
    import threading

    from repro.service.supervisor import ServiceConfig, Supervisor
    from repro.solvers import ScheduleResult

    names = tuple(soc_names or ("d695",))
    cells = [(soc_name, int(width)) for soc_name in names for width in widths]
    if duplicates < 1:
        raise ValueError(f"duplicates must be >= 1, got {duplicates}")
    total_requests = len(cells) * duplicates

    cold_reset()
    supervisor = Supervisor(
        config=ServiceConfig(
            max_inflight=2, queue_limit=max(total_requests, 1)
        )
    )
    lock = threading.Lock()
    submit_times: Dict[str, float] = {}
    done_times: Dict[str, float] = {}
    results: Dict[str, Dict[str, Any]] = {}

    def reply(message: Dict[str, Any]) -> None:
        if message.get("event") != "result":
            return
        now = time.perf_counter()
        with lock:
            done_times[message["id"]] = now
            results[message["id"]] = dict(message["result"])

    supervisor.start()
    try:
        started = time.perf_counter()
        for soc_name, width in cells:
            request = ScheduleRequest(
                soc=get_benchmark(soc_name), total_width=width, solver="paper"
            )
            for copy in range(duplicates):
                request_id = f"{soc_name}/w{width}/{copy}"
                submit_times[request_id] = time.perf_counter()
                supervisor.submit(request_id, request, reply)
        drained = supervisor.drain(timeout=600.0)
        total_seconds = time.perf_counter() - started
        stats = supervisor.stats()
    finally:
        supervisor.close()
    if not drained:
        raise AssertionError("serve suite: the supervisor did not drain")
    if len(results) != total_requests:
        raise AssertionError(
            f"serve suite: submitted {total_requests} requests but "
            f"{len(results)} results came back"
        )

    latencies = sorted(
        done_times[request_id] - submit_times[request_id]
        for request_id in done_times
    )
    makespans: Dict[str, int] = {}
    fingerprints: Dict[str, str] = {}
    for soc_name, width in cells:
        served = ScheduleResult.from_dict(results[f"{soc_name}/w{width}/0"])
        key = f"{soc_name}/paper/{width}"
        makespans[key] = served.makespan
        fingerprints[key] = schedule_fingerprint(served.schedule)
    phases: Dict[str, Dict[str, Any]] = {
        "serve/total": {
            "seconds": total_seconds,
            "requests": total_requests,
            "throughput_rps": (
                total_requests / total_seconds if total_seconds else 0.0
            ),
        },
        "serve/latency": {
            "p50_seconds": _percentile(latencies, 0.50),
            "p90_seconds": _percentile(latencies, 0.90),
            "max_seconds": latencies[-1] if latencies else 0.0,
        },
        "serve/queue": {
            "max_queue_depth": stats.get("max_queue_depth", 0),
            "queue_limit": stats.get("queue_limit", 0),
        },
        "serve/dedup": {
            "fresh": stats.get("completed", 0)
            - stats.get("dedup_cached", 0)
            - stats.get("dedup_coalesced", 0),
            "coalesced": stats.get("dedup_coalesced", 0),
            "cached": stats.get("dedup_cached", 0),
        },
    }
    return {
        **_meta("serve"),
        "socs": list(names),
        "widths": [int(width) for width in widths],
        "duplicates": duplicates,
        "phases": phases,
        "cache": _cache_stats(),
        "makespans": makespans,
        "fingerprints": fingerprints,
    }


def run_suite(
    suite: str, soc_names: Optional[Sequence[str]] = None, **kwargs: Any
) -> Dict[str, Any]:
    """Dispatch one named suite (``curves``, ``solve``, ``sweep``, ``scale``,
    ``serve``)."""
    if suite == "curves":
        return run_curves_suite(soc_names or ("d695",), **kwargs)
    if suite == "solve":
        return run_solve_suite(soc_names or SOLVE_SOCS, **kwargs)
    if suite == "sweep":
        return run_sweep_suite(soc_names or ("d695",), **kwargs)
    if suite == "scale":
        return run_scale_suite(soc_names or SCALE_SOCS, **kwargs)
    if suite == "serve":
        return run_serve_suite(soc_names or ("d695",), **kwargs)
    raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")


# ----------------------------------------------------------------------
# Golden comparisons and report IO
# ----------------------------------------------------------------------
def check_golden(report: Mapping[str, Any], golden: Mapping[str, Any]) -> List[str]:
    """Compare a report's integrity values against a golden file.

    Only keys present in *both* the report and the golden data are
    compared (so a d695-only CI run checks against a golden file that also
    covers p93791).  Returns a list of human-readable drift descriptions;
    empty means everything matches.
    """
    drifts: List[str] = []
    compared = 0
    for section in ("makespans", "fingerprints"):
        want = golden.get(section, {})
        have = report.get(section, {})
        for key in sorted(set(want) & set(have)):
            compared += 1
            if want[key] != have[key]:
                drifts.append(
                    f"{section[:-1]} drift at {key}: "
                    f"golden {want[key]!r} != measured {have[key]!r}"
                )
    if compared == 0:
        # A gate that compares nothing must fail loudly, not pass silently
        # -- this catches empty golden files and report/golden key-format
        # divergence (e.g. a renamed solver) alike.
        drifts.append(
            "golden check compared zero values: no overlap between the "
            "report's and the golden file's makespans/fingerprints keys"
        )
    return drifts


def write_report(report: Mapping[str, Any], path: str) -> None:
    """Write one suite report as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Load a suite report (or golden file) from JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _with_unit(key: str, value: Any) -> str:
    """``value`` with the unit its report key names.

    ``*_rps`` is a rate per second, ``speedup`` a factor, and
    ``*_share`` / ``*_ratio`` carry no unit.  Every other float in a suite
    report is a time (``seconds``, ``*_seconds``, ``*_s`` and the per-SOC
    or per-cell totals), printed in seconds; non-floats print as they are.
    """
    if not isinstance(value, float):
        return f"{value}"
    if key.endswith("_rps"):
        return f"{value:.1f}/s"
    if key == "speedup":
        return f"{value:.2f}x"
    if key.endswith(("_share", "_ratio")):
        return f"{value:.3f}"
    return f"{value:.4f}s"


def summarize(report: Mapping[str, Any]) -> str:
    """Human-readable one-screen summary of a suite report."""
    lines = [f"suite      : {report.get('suite')}"]
    lines.append(f"socs       : {', '.join(report.get('socs', ()))}")
    phases = report.get("phases", {})
    for name, value in phases.items():
        if isinstance(value, Mapping):
            rendered = ", ".join(
                f"{key}={_with_unit(key, entry)}" for key, entry in value.items()
            )
            lines.append(f"{name:<11}: {rendered}")
        else:
            lines.append(f"{name:<11}: {_with_unit(name, value)}")
    cache = report.get("cache", {})
    curve = cache.get("curve")
    if curve:
        lines.append(
            "curve cache: "
            f"{curve['hits']} hits, {curve['misses']} misses, "
            f"{curve['cores']} cores, {curve['widths_computed']} widths"
        )
    session = cache.get("session")
    if session:
        lines.append(
            "session    : "
            f"{session['hits']} hits, {session['misses']} misses, "
            f"{session['entries']} entries"
        )
    makespans = report.get("makespans", {})
    if makespans:
        lines.append(f"makespans  : {len(makespans)} recorded")
    refusals = report.get("refusals", {})
    for key, reason in sorted(refusals.items()):
        lines.append(f"refused    : {key}: {reason}")
    return "\n".join(lines)
