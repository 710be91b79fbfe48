"""Tests for the determinism & fork-safety lint suite (repro.staticcheck).

Each rule gets a bad/good fixture pair: the bad fixture must produce the
exact expected findings, the good fixture must produce none.  Fixture
files are written outside any ``repro`` package, so their scope hint is
empty and every rule applies (see ModuleContext's docstring).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticcheck import (
    DEFAULT_SCHEMA_RELPATH,
    Finding,
    LintError,
    default_rule_registry,
    findings_from_json,
    findings_to_json,
    generate_schema,
    parse_suppressions,
    run_lint,
    write_schema,
)
from repro.staticcheck.schema import check_wire_drift, repo_root_for

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, source, name="fixture.py", **kwargs):
    """Lint one in-memory fixture module and return its findings."""
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    report = run_lint([path], **kwargs)
    return report


def codes_and_lines(report):
    return [(f.rule, f.line) for f in report.findings]


class TestRegistry:
    def test_all_thirteen_rules_registered(self):
        registry = default_rule_registry()
        assert registry.codes() == [
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
            "REP008",
            "REP009",
            "REP010",
            "REP011",
            "REP013",
        ]

    def test_unknown_rule_raises(self):
        with pytest.raises(LintError, match="unknown rule"):
            default_rule_registry().info("REP999")

    def test_describe_mentions_every_code(self):
        text = default_rule_registry().describe()
        for code in default_rule_registry().codes():
            assert code in text

    def test_bad_code_shape_rejected(self):
        from repro.staticcheck import RuleRegistry

        with pytest.raises(LintError, match="rule code"):
            RuleRegistry().register("BOGUS", lambda: None, "x", "y")


class TestRep001Iteration:
    BAD = (
        "names = {'b', 'a'}\n"
        "for n in names:\n"
        "    print(n)\n"
        "order = tuple(names)\n"
        "listed = [n for n in names]\n"
        "groups = sorted([names], key=frozenset)\n"
    )
    GOOD = (
        "names = {'b', 'a'}\n"
        "for n in sorted(names):\n"
        "    print(n)\n"
        "order = tuple(sorted(names))\n"
        "listed = [n for n in sorted(names)]\n"
        "groups = sorted([names], key=sorted)\n"
        "count = len(names)\n"
        "membership = {n for n in names}\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_source(tmp_path, self.BAD, select=["REP001"])
        assert codes_and_lines(report) == [
            ("REP001", 2),
            ("REP001", 4),
            ("REP001", 5),
            ("REP001", 6),
        ]

    def test_good_fixture(self, tmp_path):
        report = lint_source(tmp_path, self.GOOD, select=["REP001"])
        assert report.findings == ()

    def test_shadowed_name_not_flagged(self, tmp_path):
        source = "names = {'a'}\nnames = ['a']\nfor n in names:\n    print(n)\n"
        report = lint_source(tmp_path, source, select=["REP001"])
        assert report.findings == ()


class TestRep002WallClock:
    BAD = (
        "import random\n"
        "import time\n"
        "from datetime import datetime\n"
        "def jitter():\n"
        "    return random.random() + time.time()\n"
        "def stamp():\n"
        "    return datetime.now()\n"
        "def rng():\n"
        "    return random.Random()\n"
    )
    GOOD = (
        "import random\n"
        "import time\n"
        "def jitter(seed):\n"
        "    return random.Random(seed).random()\n"
        "def elapsed():\n"
        "    return time.perf_counter()\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_source(tmp_path, self.BAD, select=["REP002"])
        assert codes_and_lines(report) == [
            ("REP002", 5),
            ("REP002", 5),
            ("REP002", 7),
            ("REP002", 9),
        ]

    def test_good_fixture(self, tmp_path):
        report = lint_source(tmp_path, self.GOOD, select=["REP002"])
        assert report.findings == ()


class TestRep003FloatEquality:
    BAD = (
        "def same(makespan, width):\n"
        "    if makespan / width == 10.0:\n"
        "        return True\n"
        "    return float(makespan) != width\n"
    )
    GOOD = (
        "import math\n"
        "def same(makespan, width):\n"
        "    if makespan == width * 10:\n"
        "        return True\n"
        "    return math.isclose(makespan / width, 10.0)\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_source(tmp_path, self.BAD, select=["REP003"])
        assert codes_and_lines(report) == [("REP003", 2), ("REP003", 4)]

    def test_good_fixture(self, tmp_path):
        report = lint_source(tmp_path, self.GOOD, select=["REP003"])
        assert report.findings == ()


class TestRep004ForkSafety:
    BAD = (
        "CACHE = {}\n"
        "from functools import partial\n"
        "def run(pool, items, scale):\n"
        "    def task(item):\n"
        "        return item * scale\n"
        "    pool.imap_unordered(lambda x: x * scale, items)\n"
        "    pool.map(task, items)\n"
        "    pool.map(partial(task, 1), items)\n"
        "    CACHE['warm'] = True\n"
        "class Driver:\n"
        "    def go(self, pool, items):\n"
        "        pool.apply_async(self.step, items)\n"
        "        pool.apply_async(partial(self.step, 1), items)\n"
    )
    GOOD = (
        "CACHE = {}\n"
        "from functools import partial\n"
        "def _task(item, scale=2):\n"
        "    return item * scale\n"
        "def _init_worker(payload):\n"
        "    CACHE['socs'] = payload\n"
        "def run(pool, items):\n"
        "    pool.imap_unordered(_task, items)\n"
        "    pool.imap_unordered(partial(_task, scale=3), items)\n"
        "def local_scratch(items):\n"
        "    CACHE = {}\n"
        "    CACHE['x'] = 1\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_source(tmp_path, self.BAD, select=["REP004"])
        assert codes_and_lines(report) == [
            ("REP004", 6),
            ("REP004", 7),
            ("REP004", 8),
            ("REP004", 9),
            ("REP004", 12),
            ("REP004", 13),
        ]
        partial_findings = [f for f in report.findings if f.line in (8, 13)]
        assert all("partial" in f.message for f in partial_findings)

    def test_good_fixture(self, tmp_path):
        report = lint_source(tmp_path, self.GOOD, select=["REP004"])
        assert report.findings == ()


WIRE_MODULE = (
    "from dataclasses import dataclass\n"
    "@dataclass(frozen=True)\n"
    "class Packet:\n"
    "    kind: str\n"
    "    size: int = 0\n"
)


class TestRep005WireSchema:
    def project(self, tmp_path, module_source=WIRE_MODULE):
        root = tmp_path / "proj"
        (root / "pkg").mkdir(parents=True)
        (root / "pkg" / "__init__.py").write_text("")
        (root / "pkg" / "wire.py").write_text(module_source, encoding="utf-8")
        return root

    def test_frozen_schema_passes(self, tmp_path):
        root = self.project(tmp_path)
        schema_path = tmp_path / "schema.json"
        write_schema(schema_path, [root], class_keys=["pkg.wire:Packet"])
        assert check_wire_drift(schema_path, [root]) == []

    def test_drift_reported(self, tmp_path):
        root = self.project(tmp_path)
        schema_path = tmp_path / "schema.json"
        write_schema(schema_path, [root], class_keys=["pkg.wire:Packet"])
        drifted = WIRE_MODULE.replace("size: int = 0", "size: int = 1\n    flag: bool = False")
        (root / "pkg" / "wire.py").write_text(drifted, encoding="utf-8")
        drifts = check_wire_drift(schema_path, [root])
        assert any("changed default '0' -> '1'" in d for d in drifts)
        assert any("'flag' was added" in d for d in drifts)

    def test_missing_snapshot_is_a_drift(self, tmp_path):
        drifts = check_wire_drift(tmp_path / "nope.json", [tmp_path])
        assert len(drifts) == 1
        assert "missing" in drifts[0]

    def test_engine_surfaces_drift_as_findings(self, tmp_path):
        root = self.project(tmp_path)
        schema_path = tmp_path / "schema.json"
        write_schema(schema_path, [root], class_keys=["pkg.wire:Packet"])
        (root / "pkg" / "wire.py").write_text(
            WIRE_MODULE.replace("kind: str", "kind: bytes"), encoding="utf-8"
        )
        # Point the pinned snapshot's keys at the fixture project.
        report = run_lint(
            [root], select=["REP005"], schema_path=schema_path, source_roots=[root]
        )
        assert [f.rule for f in report.findings] == ["REP005"]
        assert "changed annotation 'str' -> 'bytes'" in report.findings[0].message

    def test_shipped_tree_matches_pinned_snapshot(self):
        drifts = check_wire_drift(
            REPO_ROOT / DEFAULT_SCHEMA_RELPATH, [REPO_ROOT / "src", REPO_ROOT]
        )
        assert drifts == []

    def test_write_schema_is_idempotent(self, tmp_path):
        out = tmp_path / "snap.json"
        first = write_schema(out, [REPO_ROOT / "src"])
        text_first = out.read_text()
        second = write_schema(out, [REPO_ROOT / "src"])
        assert first == second
        assert out.read_text() == text_first


class TestRep006Registry:
    BAD = (
        "from repro.solvers.registry import register_solver\n"
        "@register_solver('nameless')\n"
        "class Quiet:\n"
        "    pass\n"
    )
    GOOD = (
        "from repro.solvers.registry import register_solver\n"
        "@register_solver('documented', capabilities=object())\n"
        "class Documented:\n"
        "    '''A solver with declared capabilities.'''\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_source(tmp_path, self.BAD, select=["REP006"])
        assert codes_and_lines(report) == [("REP006", 3), ("REP006", 3)]
        messages = " ".join(f.message for f in report.findings)
        assert "capabilities" in messages
        assert "docstring" in messages

    def test_good_fixture(self, tmp_path):
        report = lint_source(tmp_path, self.GOOD, select=["REP006"])
        assert report.findings == ()

    def test_shipped_builtin_solvers_are_clean(self):
        report = run_lint(
            [REPO_ROOT / "src" / "repro" / "solvers" / "builtin.py"],
            select=["REP006"],
        )
        assert report.findings == ()


class TestSuppression:
    def test_named_noqa_suppresses(self, tmp_path):
        source = (
            "names = {'b', 'a'}\n"
            "order = tuple(names)  # repro: noqa REP001\n"
        )
        report = lint_source(tmp_path, source, select=["REP001"])
        assert report.findings == ()
        assert report.suppressed == 1

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        source = (
            "names = {'b', 'a'}\n"
            "order = tuple(names)  # repro: noqa REP002\n"
        )
        report = lint_source(tmp_path, source, select=["REP001"])
        assert codes_and_lines(report) == [("REP001", 2)]

    def test_blanket_noqa_is_a_finding(self, tmp_path):
        source = "x = 1  # repro: noqa\n"
        report = lint_source(tmp_path, source, select=["REP001"])
        assert codes_and_lines(report) == [("REP000", 1)]
        assert not report.ok

    def test_pragma_in_string_is_ignored(self):
        source = "doc = '# repro: noqa'\n"
        suppressions, blanket = parse_suppressions(source, "f.py")
        assert suppressions == {}
        assert blanket == []

    def test_multiple_codes(self):
        source = "x = 1  # repro: noqa REP001, REP003\n"
        suppressions, blanket = parse_suppressions(source, "f.py")
        assert suppressions == {1: {"REP001", "REP003"}}
        assert blanket == []


class TestFindings:
    def test_ordering(self):
        a = Finding(path="a.py", line=3, rule="REP001")
        b = Finding(path="a.py", line=10, rule="REP001")
        c = Finding(path="b.py", line=1, rule="REP002")
        assert sorted([c, b, a]) == [a, b, c]

    def test_render(self):
        f = Finding(path="x.py", line=2, column=4, rule="REP003", message="boom")
        assert f.render() == "x.py:2:5: REP003 boom"

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(path="x.py", line=1, severity="fatal")

    def test_json_round_trip(self):
        findings = [
            Finding(path="a.py", line=1, rule="REP001", message="m1"),
            Finding(path="b.py", line=9, column=3, rule="REP005", message="m2"),
            Finding(
                path="c.py",
                line=4,
                rule="REP007",
                message="m3",
                chain=("pkg.entry", "pkg.writer"),
            ),
        ]
        payload = findings_to_json(findings)
        decoded = json.loads(payload)
        assert decoded["version"] == 1
        assert decoded["count"] == 3
        assert findings_from_json(payload) == findings

    def test_render_includes_witness_chain(self):
        f = Finding(
            path="x.py",
            line=2,
            rule="REP007",
            message="boom",
            chain=("a.entry", "a.mid", "a.sink"),
        )
        assert "via: a.entry -> a.mid -> a.sink" in f.render()

    def test_render_github_annotation(self):
        f = Finding(
            path="src/x.py",
            line=7,
            column=4,
            rule="REP009",
            message="bad\nnews",
            chain=("a.entry",),
        )
        text = f.render_github()
        assert text.startswith("::error file=src/x.py,line=7,col=5,title=REP009::")
        assert "%0A" in text  # newline escaped per workflow-command rules
        assert "via: a.entry" in text


class TestShippedTree:
    def test_lint_exits_zero_on_shipped_source(self):
        """The meta-test: the shipped tree must be clean under its own suite."""
        report = run_lint(
            [REPO_ROOT / "src" / "repro"],
            schema_path=REPO_ROOT / DEFAULT_SCHEMA_RELPATH,
            source_roots=[REPO_ROOT / "src", REPO_ROOT],
        )
        assert report.findings == ()
        assert report.ok

    def test_repo_root_discovered_from_package(self):
        import repro

        assert repo_root_for(Path(repro.__file__)) == REPO_ROOT


class TestCli:
    def run_cli(self, *argv, cwd=None):
        env_root = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=str(cwd or REPO_ROOT),
            env={"PYTHONPATH": env_root, "PATH": "/usr/bin:/bin"},
        )

    def test_lint_clean_tree_exits_zero(self):
        proc = self.run_cli("lint")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stderr

    def test_lint_json_output(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("names = {'a', 'b'}\norder = tuple(names)\n")
        proc = self.run_cli("lint", str(bad), "--json")
        assert proc.returncode == 1
        findings = findings_from_json(proc.stdout)
        assert [f.rule for f in findings] == ["REP001"]

    def test_lint_rule_selection(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("names = {'a', 'b'}\norder = tuple(names)\n")
        proc = self.run_cli("lint", "--rule", "REP002", str(bad))
        assert proc.returncode == 0
        proc = self.run_cli("lint", "--ignore", "REP001", str(bad))
        assert proc.returncode == 0

    def test_list_rules(self):
        proc = self.run_cli("lint", "--list-rules")
        assert proc.returncode == 0
        for code in ("REP001", "REP006", "REP007", "REP010", "REP013"):
            assert code in proc.stdout

    def test_selecting_retired_rep012_fails_loudly(self):
        # REP012 was deleted and its number stays retired: a selection
        # naming it is a usage error, not a silently empty run.
        proc = self.run_cli("lint", "--select", "REP012", "src/repro")
        assert proc.returncode == 2
        assert "unknown rule 'REP012'" in proc.stderr

    def test_lint_github_output_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("names = {'a', 'b'}\norder = tuple(names)\n")
        proc = self.run_cli("lint", "--output-format", "github", str(bad))
        assert proc.returncode == 1
        assert "::error file=" in proc.stdout
        assert "line=2" in proc.stdout
        assert "title=REP001" in proc.stdout

    def test_lint_artifact_exports_round_trip(self, tmp_path):
        from repro.staticcheck.analysis import (
            call_graph_from_json,
            effects_from_json,
        )

        cg = tmp_path / "cg.json"
        ef = tmp_path / "ef.json"
        proc = self.run_cli(
            "lint",
            str(REPO_ROOT / "src" / "repro" / "engine"),
            "--call-graph",
            str(cg),
            "--effects",
            str(ef),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        graph_payload = call_graph_from_json(cg.read_text())
        assert graph_payload["version"] == 1
        assert any(
            entry.endswith("_execute_chunk") for entry in graph_payload["entry_points"]
        )
        effects_payload = effects_from_json(ef.read_text())
        assert effects_payload["version"] == 1
        assert effects_payload["local"] and effects_payload["propagated"]


class TestBenchGate:
    def test_bench_refuses_to_write_on_wire_drift(self, tmp_path, monkeypatch):
        from repro import cli

        def fake_run_suite(suite, soc_names=None, **kwargs):
            return {"meta": {"suite": suite}, "phases": {}}

        monkeypatch.setattr("repro.analysis.perf.run_suite", fake_run_suite)
        monkeypatch.setattr("repro.analysis.perf.summarize", lambda report: "stub")
        monkeypatch.setattr(
            "repro.staticcheck.schema.check_wire_drift",
            lambda schema_path, source_roots: ["pkg:Class drifted"],
        )
        out = tmp_path / "BENCH_curves.json"
        code = cli.main(["bench", "--suite", "curves", "--json", str(out)])
        assert code == 1
        assert not out.exists()

    def test_bench_writes_when_frozen(self, tmp_path, monkeypatch):
        from repro import cli

        def fake_run_suite(suite, soc_names=None, **kwargs):
            return {"meta": {"suite": suite}, "phases": {}}

        monkeypatch.setattr("repro.analysis.perf.run_suite", fake_run_suite)
        monkeypatch.setattr("repro.analysis.perf.summarize", lambda report: "stub")
        out = tmp_path / "BENCH_curves.json"
        code = cli.main(["bench", "--suite", "curves", "--json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["meta"]["suite"] == "curves"


class TestSchemaHelpers:
    def test_generate_schema_covers_all_wire_classes(self):
        from repro.staticcheck import WIRE_CLASSES

        schema = generate_schema([REPO_ROOT / "src"])
        assert set(schema["classes"]) == set(WIRE_CLASSES)
        for entry in schema["classes"].values():
            assert entry["fields"], "every wire class has at least one field"

    def test_bad_class_key_rejected(self):
        from repro.staticcheck.schema import WireSchemaError, resolve_class_key

        with pytest.raises(WireSchemaError, match="pkg.module:Class"):
            resolve_class_key("no-colon-here", [REPO_ROOT])
