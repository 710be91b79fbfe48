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

import pytest

from repro.analysis import perf
from repro.soc.benchmarks import get_benchmark
from repro.soc.constraints import ConstraintSet
from repro.solvers import ScheduleRequest, Session

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
                    "payload_shrink": 2.87,
                    "shm_task_share": 1.0,
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
            "scale/d695/w2: speedup=1.80x, payload_shrink=2.87x, "
            "shm_task_share=1.000, hit_ratio=0.500, workers=2"
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
