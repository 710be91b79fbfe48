"""Golden regression tests: the perf work must not change a single schedule.

The incremental-state scheduler rewrite and the wrapper-curve kernel are
pure performance changes; these tests pin the scheduler's output on the
two headline benchmark SOCs -- makespans *and* exact segment fingerprints,
preemptive and non-preemptive -- to values recorded from the pre-rewrite
implementation.  If any of these move, an optimisation silently changed
behaviour.

The harness sanity tests below keep ``repro bench`` honest: suite reports
must carry per-phase timings, cache statistics and integrity makespans,
and the golden comparator must actually detect drift.
"""

import hashlib
import heapq
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import perf
from repro.analysis.experiments import TABLE2_WIDTHS
from repro.core import rectangles, scheduler
from repro.core.grid_sweep import run_grid_sweep
from repro.core.rectangles import RectangleSet, build_rectangle_sets
from repro.engine import parallel_tam_sweep
from repro.schedule.schedule import ScheduleSegment
from repro.soc.benchmarks import get_benchmark, list_benchmarks
from repro.soc.constraints import ConstraintSet
from repro.soc.core import Core
from repro.solvers import ScheduleRequest, Session
from repro.wrapper import curve

# Recorded from the pre-kernel, re-scanning scheduler implementation
# (PR 2 tree) -- (makespan, sha256 of the exact segment list).
GOLDEN = {
    ("d695", "nonpreemptive", 16): (
        44528, "1f23121ad0750bf315e3fea2d494a324df9c6bad350d059863cfd418d2361d0c"),
    ("d695", "nonpreemptive", 32): (
        24976, "3593b7726ee986249f0cd0f5442aa3d778c79754e17aa97cffd75c8c7819a186"),
    ("d695", "nonpreemptive", 64): (
        12707, "77131a0390d99a9bc54be66df918c9b8229077af6082ee1511958b37ddb68091"),
    ("d695", "preemptive", 16): (
        44744, "0c17e2429ce15b3adb7676533cb43651e0a7987381738d482863cb64cb848956"),
    ("d695", "preemptive", 32): (
        25058, "41922340c567703cad16d57fde8c391dc28a19f2e2448df6b4a83a28ee1e9417"),
    ("d695", "preemptive", 64): (
        12302, "c3aab66f5e2a9ff6782d8e610ebd80969c840ccab5e9160bad948a95bde827df"),
    ("p93791", "nonpreemptive", 16): (
        2088764, "fc6c98e5de3f6228b54cd8662dd9075edba2b680b29d04f3a4e1173db821fb8f"),
    ("p93791", "nonpreemptive", 32): (
        1040509, "104cb49de22825503c9300da89f006cd91164074e1781dcd0cbcfea4b9cf4883"),
    ("p93791", "nonpreemptive", 64): (
        527435, "f5c86affd63b1eafdf280914a173c21946d2cf5bfaf0e81c20b408785ef1268a"),
    ("p93791", "preemptive", 16): (
        1950735, "7a3eba140ec4d85dbdc876963bec4a3f90e95b4642e58f25c9275e855c0f72e3"),
    ("p93791", "preemptive", 32): (
        969351, "c44f14864cd950fc3c963d019b698b329af8766c3d628b21ee39371262799572"),
    ("p93791", "preemptive", 64): (
        482662, "ab1ca521100b1a8b5d30b58c32d6802005c2bc6f80fab5d8a750dee4a7544e9b"),
    # The remaining ITC'02 stand-ins, recorded when PR 4 scaled the solver
    # matrix to the full registered set (values from the PR 3 scheduler,
    # which PR 4's grid-sweep and heap-selection work must not change).
    ("p22810", "nonpreemptive", 16): (
        486402, "1d308f873d42da63b44f9359e33116670a5f42d9d6c2abf760a5bcaa9832ac88"),
    ("p22810", "nonpreemptive", 32): (
        258087, "4db707b4860ce28161ecfb52821b309f812a3567870e9bbddfc2cd1d5ed56200"),
    ("p22810", "nonpreemptive", 64): (
        123975, "753cae5ed5169ed3333f7496ba18b16e6ceeba1d913dd8d796d6323da85fec2b"),
    ("p22810", "preemptive", 16): (
        484138, "7db928df18f9569530530288e4b248fedd9d28fbe9b36c616b6e4600ccc77703"),
    ("p22810", "preemptive", 32): (
        234137, "6ee35c5ca8b381c8ef7c8658458d5a750d41954c5639b7203ee4d1bf23143775"),
    ("p22810", "preemptive", 64): (
        114864, "2f7cf97e9b42326ee7e5dc6919a9f2fd0d9cf741a95e8220bd4a0710a9e5d81b"),
    ("p34392", "nonpreemptive", 16): (
        1117662, "ebc71f67db9cbfcce7934eb41e981166cc01dc232fa0e4f1f15bc6bbd199a485"),
    ("p34392", "nonpreemptive", 32): (
        624492, "9813ef44288c7756773de27ccfef19b3030d2fdb92ea44807b55c293bcb93b51"),
    ("p34392", "nonpreemptive", 64): (
        544577, "429935aa120bcef0b90f203cfd77451fd29c7abc3ebd974ef0f615fd73d490b8"),
    ("p34392", "preemptive", 16): (
        1139262, "6d73db67f3e54d0e12184c317a0414486906ef54f235cf0ffa0331443cd3f462"),
    ("p34392", "preemptive", 32): (
        624492, "e7152bb8aba95c3e16df6699914b79cd79b20db4d32fdcf8ba8cbe578b1812c9"),
    ("p34392", "preemptive", 64): (
        544577, "e566fe6b746c33a37815edb128f285285e2ec8d765c09ecc2ae295021bd7c0e5"),
}

MODES = {
    "nonpreemptive": None,
    "preemptive": ConstraintSet(default_preemptions=2),
}


@pytest.fixture(scope="module")
def session():
    return Session()


class TestSchedulerGoldenRegression:
    @pytest.mark.parametrize(
        "soc_name,mode,width", sorted(GOLDEN), ids=lambda v: str(v)
    )
    def test_schedule_bit_identical_to_pre_rewrite_implementation(
        self, session, soc_name, mode, width
    ):
        soc = get_benchmark(soc_name)
        result = session.solve(
            ScheduleRequest(
                soc=soc,
                total_width=width,
                solver="paper",
                constraints=MODES[mode],
            )
        )
        makespan, fingerprint = GOLDEN[(soc_name, mode, width)]
        assert result.makespan == makespan
        assert perf.schedule_fingerprint(result.schedule) == fingerprint


class TestSchedulerWork:
    """Heap work per scheduler run grows with the cores, not their square."""

    def test_heap_operations_per_core_on_1000_cores(self, monkeypatch):
        soc = perf.scale_soc("s1000")
        sets = build_rectangle_sets(soc, scheduler.SchedulerConfig().max_core_width)
        calls = {"heappush": 0, "heappop": 0}

        def counted(name):
            def call(*args):
                calls[name] += 1
                return getattr(heapq, name)(*args)

            return call

        monkeypatch.setattr(
            scheduler,
            "heapq",
            SimpleNamespace(
                heapify=heapq.heapify,
                heappush=counted("heappush"),
                heappop=counted("heappop"),
            ),
        )
        schedule = scheduler.run_paper_scheduler(soc, 64, rectangle_sets=sets)
        assert len(schedule.scheduled_cores) == len(soc.cores) == 1000
        # Each start pushes one completion entry and pops it, and drops one
        # begun entry from its width bucket.  Popping past every wider core
        # on every selection cost about 147 operations per core.
        assert sum(calls.values()) <= 8 * len(soc.cores)

    def test_pruned_runs_stop_early_on_the_full_grid(self, monkeypatch):
        soc = perf.scale_soc("s1000")
        sets = build_rectangle_sets(soc, scheduler.SchedulerConfig().max_core_width)
        calls = {"_advance": 0, "_start": 0}

        def counted(name):
            method = getattr(scheduler._Scheduler, name)

            def call(self, *args):
                calls[name] += 1
                return method(self, *args)

            return call

        for name in calls:
            monkeypatch.setattr(scheduler._Scheduler, name, counted(name))
        outcome = run_grid_sweep(soc, 64, rectangle_sets=sets)
        assert outcome.makespan == 9163954
        # 55 of the 57 runs are pruned.  Stopping them only when the event
        # clock passed the incumbent cost 41,575 events and 42,438 starts;
        # the area floor stops most of them within a few events of t = 0.
        assert calls["_advance"] <= 5000
        assert calls["_start"] <= 7000


    def test_slack_variants_share_one_bucket_walk(self, monkeypatch):
        soc = perf.scale_soc("s1000")
        sets = build_rectangle_sets(soc, scheduler.SchedulerConfig().max_core_width)
        walks = [0]
        build = rectangles.SocPlan._build_buckets

        def counted(self, *args):
            walks[0] += 1
            return build(self, *args)

        monkeypatch.setattr(rectangles.SocPlan, "_build_buckets", counted)
        outcome = run_grid_sweep(soc, 64, rectangle_sets=sets)
        assert outcome.makespan == 9163954
        assert outcome.unique_runs == 57
        # Walking every core to build each run's heaps cost 57 walks; the
        # three slack variants of a grid point share a vector and run back
        # to back, so the plan's last heaps serve the second and third.
        assert walks[0] <= 19

    def test_core_states_are_built_lazily(self, monkeypatch):
        soc = perf.scale_soc("s1000")
        sets = build_rectangle_sets(soc, scheduler.SchedulerConfig().max_core_width)
        built = [0]

        class CountedState(scheduler._CoreState):
            __slots__ = ()

            def __init__(self, *args):
                built[0] += 1
                super().__init__(*args)

        monkeypatch.setattr(scheduler, "_CoreState", CountedState)
        outcome = run_grid_sweep(soc, 64, rectangle_sets=sets)
        assert outcome.makespan == 9163954
        # One state per core per run cost 57,000 constructions over the 57
        # runs; a run now builds one only for a core it starts (5,541 in
        # all, most of them in the two runs that complete).
        assert built[0] <= 7000

    def test_pruned_runs_build_no_segments(self, monkeypatch):
        built = [0]
        validate = ScheduleSegment.__post_init__

        def counted(segment):
            built[0] += 1
            validate(segment)

        monkeypatch.setattr(ScheduleSegment, "__post_init__", counted)
        sweep = parallel_tam_sweep(
            get_benchmark("d695"), TABLE2_WIDTHS, workers=0, solver="best"
        )
        assert sum(sweep.testing_times) == 788437
        # Building a validated segment at every pause cost 7,705
        # constructions, most of them in runs the sweep later pruned; a run
        # now keeps int bounds and builds segments only once it completes.
        assert built[0] <= 2500


class TestGridSweepWork:
    """Repeat sweeps over the same rectangle sets reuse the SOC plan."""

    def test_second_sweep_recomputes_no_preferred_width_or_power(self, monkeypatch):
        soc = perf.scale_soc("s1000")
        sets = build_rectangle_sets(soc, scheduler.SchedulerConfig().max_core_width)
        calls = {"preferred_width": 0, "test_power": 0}
        preferred_width = RectangleSet.preferred_width
        test_power = Core.test_power

        def counted_preferred_width(self, *args):
            calls["preferred_width"] += 1
            return preferred_width(self, *args)

        def counted_test_power(self):
            calls["test_power"] += 1
            return test_power.fget(self)

        monkeypatch.setattr(RectangleSet, "preferred_width", counted_preferred_width)
        monkeypatch.setattr(Core, "test_power", property(counted_test_power))
        counts = []
        for _ in range(2):
            run_grid_sweep(soc, 64, rectangle_sets=sets)
            counts.append(dict(calls))
            calls.update(preferred_width=0, test_power=0)
        # One preferred width per core and (percent, delta) grid point, and
        # one power read per core, all on the first sweep.  Rebuilding them
        # for every sweep and run cost 21,000 and 57,000 calls each time.
        assert counts[0]["preferred_width"] <= 21 * len(soc.cores)
        assert counts[0]["test_power"] <= len(soc.cores)
        assert counts[1] == {"preferred_width": 0, "test_power": 0}


class TestCurveKernelWork:
    """Bidir-free cores take their scan lengths from the top LPT load alone,
    and a scan-bit bound settles most widths before any design is built."""

    def test_kernel_work_on_1000_cores(self, monkeypatch):
        soc = perf.scale_soc("s1000")
        calls = {"heap": 0, "fill_cells": 0}

        def counted(key, function):
            def call(*args):
                calls[key] += 1
                return function(*args)

            return call

        monkeypatch.setattr(
            curve,
            "heapq",
            SimpleNamespace(
                **{
                    name: counted("heap", getattr(heapq, name))
                    for name in ("heapify", "heappush", "heappop", "heapreplace")
                }
            ),
        )
        monkeypatch.setattr(
            curve, "_fill_cells", counted("fill_cells", curve._fill_cells)
        )
        curve.clear_curve_cache()
        for core in soc.cores:
            curve.wrapper_curve(core, 64)
        # Running the step at every width below the closed-form tail
        # evaluated 20,881 widths (64,000 with the tail copies counted), cost
        # 187,609 heap operations and 5,247 ``_fill_cells`` calls; the scan-bit
        # bound settles most widths before the step runs.  (Before the
        # bin-load path, a per-chain fill at every width cost 582 heap
        # operations per core and 41,511 ``_fill_cells`` calls.)  Copying
        # each settled run at once must settle exactly the same widths.
        assert curve.curve_cache_info().widths_computed == 7847
        assert calls["heap"] <= 100 * len(soc.cores)
        assert calls["fill_cells"] <= 2500

    def test_rectangle_sets_build_no_pareto_points(self, monkeypatch):
        built = [0]

        class CountedPoint(curve.ParetoPoint):
            def __init__(self, *args, **kwargs):
                built[0] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(curve, "ParetoPoint", CountedPoint)
        curve.clear_curve_cache()
        sets = build_rectangle_sets(get_benchmark("p93791"), 64)
        # Building a point tuple per set cost one point per Pareto width;
        # the sets read the curve, and the points wait for ``points``.
        assert built[0] == 0
        first = next(iter(sets.values()))
        assert len(first.points) == len(first) == built[0] > 0


#: SHA-256 over the cached curve tables of the golden 1000-core SOC and
#: the four ITC'02 SOCs at W=64, recorded over the five staircase fields
#: before the kernel began skipping dominated widths.
CURVE_TABLES_SHA256 = "7e1fc3a79d22cbd7177aa9ef0f01c35294d592328c6f75c95d067338b1e28f3a"


class TestCurveTableFingerprint:
    def test_exported_curve_tables_are_unchanged(self):
        curve.clear_curve_cache()
        socs = [perf.scale_soc("s1000")]
        socs += [get_benchmark(name) for name in list_benchmarks()]
        for soc in socs:
            for core in soc.cores:
                curve.wrapper_curve(core, 64)
        digest = hashlib.sha256()
        for core, data in curve._DATA.items():
            digest.update(core.name.encode())
            for name in curve.CURVE_TABLE_FIELDS:
                digest.update(b"|" + ",".join(map(str, getattr(data, name))).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == CURVE_TABLES_SHA256


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Every function and method the benchmark's tracer wraps, by attribute.
PROBED = {
    "wrapper_curve", "build_rectangle_sets", "resolve_rectangle_sets", "lower_bound",
    "dedupe_grid", "order_runs_by_estimate", "run_paper_scheduler", "run_jobs",
    "encode_message", "parse_client_line", "run_grid_sweep", "rectangle_sets", "solve",
    "run_grid_runs", "__init__", "submit", "append", "validate", "process",
}


class TestBenchmarkProbes:
    """The benchmark's trace probes still resolve against the library.

    A renamed probe target would otherwise only fail at
    ``perfbench/run.py --trace 1``.
    """

    def test_probe_targets_resolve_and_see_the_sweep_set_up(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        loaded = set(sys.modules)
        try:
            measure = importlib.import_module("measure")
            workloads = importlib.import_module("workloads")
            tracer = measure.Tracer()
            workloads.install_probes(tracer)
            try:
                patched = [attribute for _, attribute, _ in tracer._patches]
                assert set(patched) == PROBED
                assert len(patched) >= len(PROBED)
                # The sweep set-up runs through the patched module globals.
                run_grid_sweep(get_benchmark("d695"), 32, percents=(1, 25), deltas=(0,))
                for name in ("dedupe_grid", "lower_bound", "order_runs_by_estimate"):
                    assert tracer.spans_named(name), name
            finally:
                tracer.restore()
            assert not tracer._patches
        finally:
            for name in set(sys.modules) - loaded:
                origin = getattr(sys.modules[name], "__file__", None) or ""
                if Path(origin).parent == PERFBENCH:
                    del sys.modules[name]


class TestHarness:
    def test_curves_suite_report_shape(self):
        report = perf.run_curves_suite(("d695",), repeats=1)
        assert report["suite"] == "curves"
        assert report["socs"] == ["d695"]
        assert len(report["cores"]) == len(get_benchmark("d695").cores)
        for entry in report["cores"]:
            assert entry["cold_seconds"] >= 0
            assert entry["pareto_points"] >= 1
        assert report["phases"]["curve_cold_seconds"]["d695"] > 0
        assert report["cache"]["curve"]["cores"] == len(get_benchmark("d695").cores)
        # Integrity makespans are present and match the golden constants.
        for width in (16, 32, 64):
            makespan, fingerprint = GOLDEN[("d695", "nonpreemptive", width)]
            assert report["makespans"][f"d695/paper/{width}"] == makespan
            assert report["fingerprints"][f"d695/paper/{width}"] == fingerprint

    def test_solve_suite_reports_refusals_not_silent_na(self):
        report = perf.run_solve_suite(("d695",), widths=(16,), repeats=1)
        assert "d695/exhaustive/16" in report["refusals"]
        assert "6 cores" in report["refusals"]["d695/exhaustive/16"]
        # Every non-refused cell carries a makespan.
        assert report["makespans"]["d695/paper/16"] == GOLDEN[("d695", "nonpreemptive", 16)][0]
        assert report["phases"]["cold"]["total"] > 0
        assert report["phases"]["warm"]["total"] > 0

    def test_summarize_renders_the_unit_each_key_names(self):
        report = {
            "suite": "demo",
            "socs": ["d695"],
            "phases": {
                "serve/total": {"seconds": 0.25, "requests": 9, "throughput_rps": 391.1279},
                "serve/latency": {"p50_seconds": 0.003, "max_s": 0.01},
                "scale/d695/w2": {
                    "speedup": 1.8,
                    "task_share": 1.0,
                    "hit_ratio": 0.5,
                    "workers": 2,
                },
                "curve_cold_seconds": {"d695": 0.125},
                "reference_seconds": 0.5,
                "speedup": 2.0,
            },
        }
        lines = perf.summarize(report).splitlines()
        assert lines[2] == "serve/total: seconds=0.2500s, requests=9, throughput_rps=391.1/s"
        assert lines[3] == "serve/latency: p50_seconds=0.0030s, max_s=0.0100s"
        assert lines[4] == (
            "scale/d695/w2: speedup=1.80x, task_share=1.000, "
            "hit_ratio=0.500, workers=2"
        )
        assert lines[5] == "curve_cold_seconds: d695=0.1250s"
        assert lines[6] == "reference_seconds: 0.5000s"
        assert lines[7] == "speedup    : 2.00x"

    def test_check_golden_detects_drift(self):
        report = {
            "makespans": {"d695/paper/16": 1},
            "fingerprints": {"d695/paper/16": "aaa"},
        }
        golden = {
            "makespans": {"d695/paper/16": 2, "p93791/paper/16": 3},
            "fingerprints": {"d695/paper/16": "bbb"},
        }
        drifts = perf.check_golden(report, golden)
        assert len(drifts) == 2  # p93791 key absent from the report: skipped
        assert any("makespan drift" in drift for drift in drifts)

    def test_check_golden_passes_on_match(self):
        report = {"makespans": {"a": 1}, "fingerprints": {"a": "x"}}
        golden = {"makespans": {"a": 1}, "fingerprints": {"a": "x"}}
        assert perf.check_golden(report, golden) == []

    def test_check_golden_flags_empty_golden(self):
        assert perf.check_golden({"makespans": {"a": 1}}, {}) != []

    def test_check_golden_flags_empty_key_intersection(self):
        # A gate that compares nothing must fail, not silently pass (e.g. a
        # renamed solver changing every report key).
        report = {"makespans": {"d695/sweep/16": 5}}
        golden = {"makespans": {"d695/paper/16": 44528}}
        drifts = perf.check_golden(report, golden)
        assert drifts and "zero values" in drifts[0]

    def test_cold_reset_clears_default_session_cache(self):
        from repro.solvers.session import get_default_session

        session = get_default_session()
        session.rectangle_sets(get_benchmark("d695"), 64)
        perf.cold_reset()
        info = session.cache_info()
        assert (info.hits, info.misses, info.entries) == (0, 0, 0)

    def test_repo_golden_file_matches_current_results(self):
        import os

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks",
            "golden_makespans.json",
        )
        golden = perf.load_report(path)
        report = perf.run_curves_suite(("d695",), repeats=1)
        assert perf.check_golden(report, golden) == []
