"""Tests for the interprocedural analysis layer and the REP007-REP010 rules.

Covers the three analysis passes (symbol table, call graph, effects
fixpoint) on purpose-built multi-module fixtures -- decorator resolution,
re-exports, registry-dispatch indirection, typed method calls through a
``Session``-style factory -- plus bad/good fixture pairs per rule with
exact (rule, line) and witness-chain assertions, JSON round-trips, and
the meta-test that the shipped tree is REP007-REP010 clean.
"""

import ast
from pathlib import Path

from repro.staticcheck import run_lint
from repro.staticcheck.analysis import (
    CallGraph,
    ProjectAnalysis,
    SymbolTable,
    analyze_paths,
    call_graph_from_json,
    call_graph_to_json,
    effects_from_json,
    effects_to_dict,
    effects_to_json,
    module_name_for,
    propagate_effects,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def build_project(modules):
    """Build a ProjectAnalysis from {module_name: source} pairs."""
    entries = [
        (name, f"{name.replace('.', '/')}.py", source, ast.parse(source))
        for name, source in sorted(modules.items())
    ]
    return ProjectAnalysis.build(entries)


def lint_fixture(tmp_path, source, select, name="fixture.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return run_lint([path], select=select)


def codes_and_lines(report):
    return [(f.rule, f.line) for f in report.findings]


# ----------------------------------------------------------------------
# Symbol table
# ----------------------------------------------------------------------
class TestSymbolTable:
    def test_module_name_for(self, tmp_path):
        root = tmp_path / "src"
        (root / "pkg" / "sub").mkdir(parents=True)
        module = root / "pkg" / "sub" / "mod.py"
        package = root / "pkg" / "__init__.py"
        module.touch()
        package.touch()
        assert module_name_for(module, [root]) == "pkg.sub.mod"
        assert module_name_for(package, [root]) == "pkg"
        outside = tmp_path / "fixture.py"
        outside.touch()
        assert module_name_for(outside, [root]) == "fixture"

    def test_imports_and_aliases(self):
        analysis = build_project(
            {
                "pkg.util": "def helper():\n    return 1\n",
                "pkg.main": (
                    "from pkg.util import helper as h\n"
                    "import pkg.util as u\n"
                    "def run():\n"
                    "    return h() + u.helper()\n"
                ),
            }
        )
        table = analysis.table
        assert table.resolve("pkg.main", "h") == "pkg.util.helper"
        assert table.resolve("pkg.main", "u.helper") == "pkg.util.helper"

    def test_reexport_chain_through_package_init(self):
        analysis = build_project(
            {
                "pkg": "from pkg.impl import work\n",
                "pkg.impl": "def work():\n    return 1\n",
                "client": (
                    "from pkg import work\n"
                    "def go():\n"
                    "    return work()\n"
                ),
            }
        )
        table = analysis.table
        assert table.resolve("client", "work") == "pkg.impl.work"
        assert table.resolve_absolute("pkg.work") == "pkg.impl.work"

    def test_relative_imports(self):
        analysis = build_project(
            {
                "pkg.a": "def fa():\n    return 1\n",
                "pkg.b": (
                    "from .a import fa\n"
                    "def fb():\n"
                    "    return fa()\n"
                ),
            }
        )
        assert analysis.table.resolve("pkg.b", "fa") == "pkg.a.fa"

    def test_decorator_resolution(self):
        analysis = build_project(
            {
                "pkg.reg": (
                    "def register_solver(name, capabilities=None):\n"
                    "    def deco(cls):\n"
                    "        return cls\n"
                    "    return deco\n"
                ),
                "pkg.impl": (
                    "from pkg.reg import register_solver as reg\n"
                    "@reg('x', capabilities=object())\n"
                    "class Impl:\n"
                    "    '''Doc.'''\n"
                    "    def solve(self, request):\n"
                    "        return request\n"
                ),
            }
        )
        table = analysis.table
        assert table.classes["pkg.impl.Impl"].decorators == (
            "pkg.reg.register_solver",
        )
        assert table.classes_decorated_by(("register_solver",)) == ["pkg.impl.Impl"]

    def test_method_resolution_through_project_bases(self):
        analysis = build_project(
            {
                "pkg.base": (
                    "class Base:\n"
                    "    def shared(self):\n"
                    "        return 1\n"
                ),
                "pkg.child": (
                    "from pkg.base import Base\n"
                    "class Child(Base):\n"
                    "    def own(self):\n"
                    "        return self.shared()\n"
                ),
            }
        )
        table = analysis.table
        assert (
            table.method_of("pkg.child.Child", "shared") == "pkg.base.Base.shared"
        )
        # The self.shared() call resolves through the base class.
        edges = analysis.call_graph.callees("pkg.child.Child.own")
        assert any(e.callee == "pkg.base.Base.shared" for e in edges)

    def test_fork_local_pragma_names(self):
        analysis = build_project(
            {
                "pkg.state": (
                    "BOARD = None  # repro: fork-local\n"
                    "CACHE = {}\n"
                ),
            }
        )
        assert analysis.table.fork_local_names("pkg.state") == {"BOARD"}


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
SESSION_PROJECT = {
    "pkg.registry": (
        "def register_solver(name, capabilities=None):\n"
        "    def deco(cls):\n"
        "        return cls\n"
        "    return deco\n"
    ),
    "pkg.solvers": (
        "from pkg.registry import register_solver\n"
        "@register_solver('alpha', capabilities=object())\n"
        "class Alpha:\n"
        "    '''Alpha.'''\n"
        "    def solve(self, request):\n"
        "        return request\n"
        "@register_solver('beta', capabilities=object())\n"
        "class Beta:\n"
        "    '''Beta.'''\n"
        "    def solve(self, request):\n"
        "        return helper(request)\n"
        "def helper(request):\n"
        "    return request\n"
    ),
    "pkg.session": (
        "from pkg.solvers import Alpha\n"
        "class Session:\n"
        "    def solve(self, request):\n"
        "        solver = Alpha()\n"
        "        return solver.solve(request)\n"
        "def get_default_session() -> Session:\n"
        "    return Session()\n"
    ),
    "pkg.api": (
        "from pkg.session import get_default_session\n"
        "def run_all(requests):\n"
        "    session = get_default_session()\n"
        "    return [session.solve(r) for r in requests]\n"
    ),
}


class TestCallGraph:
    def test_method_call_through_session_factory(self):
        analysis = build_project(SESSION_PROJECT)
        edges = analysis.call_graph.callees("pkg.api.run_all")
        # session = get_default_session() types the receiver via the
        # factory's return annotation, so session.solve resolves.
        assert any(
            e.callee == "pkg.session.Session.solve" and e.kind == "call"
            for e in edges
        )

    def test_registry_dispatch_fans_out(self):
        analysis = build_project(SESSION_PROJECT)
        edges = analysis.call_graph.callees("pkg.api.run_all")
        dispatched = {e.callee for e in edges if e.kind == "dispatch"}
        assert "pkg.solvers.Alpha.solve" in dispatched
        assert "pkg.solvers.Beta.solve" in dispatched

    def test_constructor_typed_receiver(self):
        analysis = build_project(SESSION_PROJECT)
        edges = analysis.call_graph.callees("pkg.session.Session.solve")
        assert any(
            e.callee == "pkg.solvers.Alpha.solve" and e.kind == "call"
            for e in edges
        )

    def test_annotation_typed_receiver(self):
        analysis = build_project(
            {
                "pkg.s": (
                    "class Session:\n"
                    "    def solve(self, request):\n"
                    "        return request\n"
                ),
                "pkg.c": (
                    "from pkg.s import Session\n"
                    "def drive(session: Session, request):\n"
                    "    return session.solve(request)\n"
                ),
            }
        )
        edges = analysis.call_graph.callees("pkg.c.drive")
        assert any(e.callee == "pkg.s.Session.solve" for e in edges)

    def test_entry_points_from_payload_and_initializer(self):
        analysis = build_project(
            {
                "pkg.exec": (
                    "def _execute_task(item):\n"
                    "    return item\n"
                    "def _init_worker():\n"
                    "    pass\n"
                    "def run(pool, mp):\n"
                    "    mp.Pool(2, initializer=_init_worker)\n"
                    "    return list(pool.imap_unordered(_execute_task, [1]))\n"
                ),
            }
        )
        assert analysis.call_graph.entry_points == (
            "pkg.exec._execute_task",
            "pkg.exec._init_worker",
        )

    def test_reachable_witness_chains(self):
        analysis = build_project(SESSION_PROJECT | {
            "pkg.exec": (
                "from pkg.api import run_all\n"
                "def _execute_task(requests):\n"
                "    return run_all(requests)\n"
                "def run(pool, items):\n"
                "    return list(pool.imap_unordered(_execute_task, items))\n"
            ),
        })
        chains = analysis.worker_reachable()
        assert chains["pkg.solvers.helper"] == (
            "pkg.exec._execute_task",
            "pkg.api.run_all",
            "pkg.solvers.Beta.solve",
            "pkg.solvers.helper",
        )

    def test_json_round_trip_and_determinism(self):
        first = build_project(SESSION_PROJECT)
        second = build_project(SESSION_PROJECT)
        payload = call_graph_to_json(first.call_graph)
        assert payload == call_graph_to_json(second.call_graph)
        assert call_graph_from_json(payload) == first.call_graph.to_dict()


# ----------------------------------------------------------------------
# Effects
# ----------------------------------------------------------------------
class TestEffects:
    def test_local_effect_kinds(self):
        analysis = build_project(
            {
                "pkg.fx": (
                    "STATE = {}\n"
                    "COUNT = 0\n"
                    "def writes_global():\n"
                    "    global COUNT\n"
                    "    COUNT += 1\n"
                    "    STATE['k'] = 1\n"
                    "    STATE.update(a=2)\n"
                    "class Box:\n"
                    "    def set(self, v):\n"
                    "        self.v = v\n"
                    "def does_io(path):\n"
                    "    return open(path).read()\n"
                    "def pure(x):\n"
                    "    local = {}\n"
                    "    local['x'] = x\n"
                    "    return local\n"
                ),
            }
        )
        fx = analysis.local_effects
        writer = fx["pkg.fx.writes_global"]
        assert {w.name for w in writer.global_writes} == {"COUNT", "STATE"}
        assert {w.line for w in writer.global_writes} == {5, 6, 7}
        assert fx["pkg.fx.Box.set"].instance_writes == (10,)
        assert fx["pkg.fx.does_io"].io_calls == (12,)
        assert fx["pkg.fx.pure"].is_pure

    def test_local_shadowing_is_not_a_global_write(self):
        analysis = build_project(
            {
                "pkg.fx": (
                    "CACHE = {}\n"
                    "def scratch():\n"
                    "    CACHE = {}\n"
                    "    CACHE['x'] = 1\n"
                    "    return CACHE\n"
                ),
            }
        )
        assert analysis.local_effects["pkg.fx.scratch"].is_pure

    def test_fixpoint_on_mutual_recursion(self):
        analysis = build_project(
            {
                "pkg.rec": (
                    "STATE = {}\n"
                    "def even(n):\n"
                    "    if n == 0:\n"
                    "        return True\n"
                    "    STATE['n'] = n\n"
                    "    return odd(n - 1)\n"
                    "def odd(n):\n"
                    "    if n == 0:\n"
                    "        return False\n"
                    "    return even(n - 1)\n"
                ),
            }
        )
        # odd never writes locally, but its propagated summary absorbs
        # even's write through the 2-cycle (one SCC, single pass).
        assert analysis.local_effects["pkg.rec.odd"].is_pure
        propagated = analysis.effects["pkg.rec.odd"]
        assert [w.name for w in propagated.global_writes] == ["STATE"]
        assert analysis.effects["pkg.rec.even"].global_writes == (
            propagated.global_writes
        )

    def test_propagation_is_transitive_over_chains(self):
        analysis = build_project(
            {
                "pkg.chain": (
                    "LOG = []\n"
                    "def sink(x):\n"
                    "    LOG.append(x)\n"
                    "def mid(x):\n"
                    "    return sink(x)\n"
                    "def top(x):\n"
                    "    return mid(x)\n"
                ),
            }
        )
        assert analysis.local_effects["pkg.chain.top"].is_pure
        assert [w.writer for w in analysis.effects["pkg.chain.top"].global_writes] == [
            "pkg.chain.sink"
        ]

    def test_memoized_detection_is_not_propagated(self):
        analysis = build_project(
            {
                "pkg.memo": (
                    "from functools import lru_cache\n"
                    "@lru_cache(maxsize=None)\n"
                    "def cached(x):\n"
                    "    return x * x\n"
                    "def caller(x):\n"
                    "    return cached(x)\n"
                ),
            }
        )
        assert analysis.local_effects["pkg.memo.cached"].memoized
        assert analysis.effects["pkg.memo.cached"].memoized
        assert not analysis.effects["pkg.memo.caller"].memoized

    def test_effects_json_round_trip(self):
        analysis = build_project(SESSION_PROJECT)
        payload = effects_to_json(analysis.local_effects, analysis.effects)
        assert effects_from_json(payload) == effects_to_dict(
            analysis.local_effects, analysis.effects
        )

    def test_propagate_effects_accepts_prebuilt_graph(self):
        entries = [
            ("m", "m.py", "def f():\n    return g()\ndef g():\n    return 1\n",
             ast.parse("def f():\n    return g()\ndef g():\n    return 1\n")),
        ]
        table = SymbolTable.build(entries)
        graph = CallGraph.build(table)
        effects = propagate_effects(graph)
        assert effects["m.f"].is_pure and effects["m.g"].is_pure


# ----------------------------------------------------------------------
# REP007: worker-reachable mutation
# ----------------------------------------------------------------------
class TestRep007WorkerMutation:
    BAD = (
        "STATE = {}\n"
        "def _execute_task(item):\n"
        "    STATE['last'] = item\n"
        "    return item\n"
        "def run(pool, items):\n"
        "    return list(pool.imap_unordered(_execute_task, items))\n"
    )
    GOOD = (
        "STATE = {}  # repro: fork-local\n"
        "CACHE = {}\n"
        "def _execute_task(item):\n"
        "    STATE['last'] = item\n"
        "    return item\n"
        "def _init_worker(payload):\n"
        "    CACHE['socs'] = payload\n"
        "def prime_context_caches(pairs):\n"
        "    CACHE['pairs'] = pairs\n"
        "def run(pool, items):\n"
        "    return list(pool.imap_unordered(_execute_task, items))\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_fixture(tmp_path, self.BAD, ["REP007"])
        assert codes_and_lines(report) == [("REP007", 3)]
        assert report.findings[0].chain == ("fixture._execute_task",)

    def test_good_fixture(self, tmp_path):
        report = lint_fixture(tmp_path, self.GOOD, ["REP007"])
        assert report.findings == ()

    def test_transitive_write_is_anchored_at_the_writer(self, tmp_path):
        source = (
            "BOARD = {}\n"
            "def publish(value):\n"
            "    BOARD['best'] = value\n"
            "def _execute_task(item):\n"
            "    publish(item)\n"
            "    return item\n"
            "def run(pool, items):\n"
            "    return list(pool.imap_unordered(_execute_task, items))\n"
        )
        report = lint_fixture(tmp_path, source, ["REP007"])
        assert codes_and_lines(report) == [("REP007", 3)]
        assert report.findings[0].chain == (
            "fixture._execute_task",
            "fixture.publish",
        )

    def test_suppression_applies_to_project_findings(self, tmp_path):
        source = self.BAD.replace(
            "    STATE['last'] = item\n",
            "    STATE['last'] = item  # repro: noqa REP007\n",
        )
        report = lint_fixture(tmp_path, source, ["REP007"])
        assert report.findings == ()
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# REP008: unprimed worker cache
# ----------------------------------------------------------------------
class TestRep008WorkerCache:
    BAD = (
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def curve(x):\n"
        "    return x * x\n"
        "def _task(x):\n"
        "    return curve(x)\n"
        "def run(pool, items):\n"
        "    return list(pool.imap_unordered(_task, items))\n"
    )
    GOOD_PRIMED = (
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def curve(x):\n"
        "    return x * x\n"
        "def prime_context_caches(pairs):\n"
        "    for x in pairs:\n"
        "        curve(x)\n"
        "def _task(x):\n"
        "    return curve(x)\n"
        "def run(pool, items):\n"
        "    return list(pool.imap_unordered(_task, items))\n"
    )
    GOOD_FORK_LOCAL = (
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=None)  # repro: fork-local\n"
        "def curve(x):\n"
        "    return x * x\n"
        "def _task(x):\n"
        "    return curve(x)\n"
        "def run(pool, items):\n"
        "    return list(pool.imap_unordered(_task, items))\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_fixture(tmp_path, self.BAD, ["REP008"])
        assert codes_and_lines(report) == [("REP008", 3)]
        assert report.findings[0].chain == ("fixture._task", "fixture.curve")

    def test_primed_memo_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, self.GOOD_PRIMED, ["REP008"])
        assert report.findings == ()

    def test_fork_local_memo_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, self.GOOD_FORK_LOCAL, ["REP008"])
        assert report.findings == ()


# ----------------------------------------------------------------------
# REP009: swallowed failures
# ----------------------------------------------------------------------
class TestRep009SwallowedFailure:
    BAD = (
        "def risky(work):\n"
        "    try:\n"
        "        return work()\n"
        "    except Exception:\n"
        "        pass\n"
        "def _execute_task(work):\n"
        "    try:\n"
        "        return work()\n"
        "    except:\n"
        "        return None\n"
        "def run(pool, items):\n"
        "    return list(pool.imap_unordered(_execute_task, items))\n"
    )
    GOOD = (
        "def careful(work):\n"
        "    try:\n"
        "        return work()\n"
        "    except ValueError:\n"
        "        return None\n"
        "def flagged(work, result):\n"
        "    try:\n"
        "        return work()\n"
        "    except Exception:\n"
        "        result.degraded_to_serial = True\n"
        "        return None\n"
        "def logged(work, log):\n"
        "    try:\n"
        "        return work()\n"
        "    except Exception:\n"
        "        log.warning('task failed')\n"
        "        raise\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_fixture(tmp_path, self.BAD, ["REP009"])
        assert codes_and_lines(report) == [("REP009", 4), ("REP009", 9)]
        by_line = {f.line: f for f in report.findings}
        assert by_line[4].chain == ()  # not on the parallel path
        assert by_line[9].chain == ("fixture._execute_task",)

    def test_good_fixture(self, tmp_path):
        report = lint_fixture(tmp_path, self.GOOD, ["REP009"])
        assert report.findings == ()


# ----------------------------------------------------------------------
# REP011: unjournalled recovery handlers
# ----------------------------------------------------------------------
class TestRep011UnjournalledRecovery:
    BAD = (
        "def watchdog(iterator):\n"
        "    try:\n"
        "        return next(iterator)\n"
        "    except TimeoutError:\n"
        "        return None\n"
        "def _execute_task(work):\n"
        "    try:\n"
        "        return work()\n"
        "    except BrokenPipeError:\n"
        "        return None\n"
        "def run(pool, items):\n"
        "    return list(pool.imap_unordered(_execute_task, items))\n"
    )
    GOOD = (
        "def journalled(iterator, journal):\n"
        "    try:\n"
        "        return next(iterator)\n"
        "    except TimeoutError:\n"
        "        journal.failure(kind='pool-stall', action='resurrect')\n"
        "        return None\n"
        "def reraised(work):\n"
        "    try:\n"
        "        return work()\n"
        "    except BrokenPipeError:\n"
        "        raise\n"
        "def recorded(work, failures):\n"
        "    try:\n"
        "        return work()\n"
        "    except InjectedFault as error:\n"
        "        failures.record(error)\n"
        "        return None\n"
        "def unrelated(work):\n"
        "    try:\n"
        "        return work()\n"
        "    except ValueError:\n"
        "        return None\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_fixture(tmp_path, self.BAD, ["REP011"])
        assert codes_and_lines(report) == [("REP011", 4), ("REP011", 9)]
        by_line = {f.line: f for f in report.findings}
        assert by_line[4].chain == ()  # not on the parallel path
        assert by_line[9].chain == ("fixture._execute_task",)
        assert "FailureRecord" in by_line[9].message

    def test_good_fixture(self, tmp_path):
        report = lint_fixture(tmp_path, self.GOOD, ["REP011"])
        assert report.findings == ()


# ----------------------------------------------------------------------
# REP013: unsettled service request handlers
# ----------------------------------------------------------------------
class TestRep013UnsettledServiceHandler:
    BAD = (
        "def _solve_ticket(session, ticket):\n"
        "    try:\n"
        "        return session.solve(ticket.request)\n"
        "    except CancelledSolve:\n"
        "        return None\n"
        "def process(session, message):\n"
        "    try:\n"
        "        return _solve_ticket(session, message)\n"
        "    except Exception:\n"
        "        return None\n"
    )
    GOOD = (
        "def settled(session, ticket, supervisor):\n"
        "    try:\n"
        "        return session.solve(ticket.request)\n"
        "    except CancelledSolve as error:\n"
        "        supervisor._settle_cancelled(ticket, error.reason)\n"
        "        return None\n"
        "def journalled(session, ticket, supervisor):\n"
        "    try:\n"
        "        return session.solve(ticket.request)\n"
        "    except SolverError as error:\n"
        "        supervisor._finish_failed(ticket, 'solver-error')\n"
        "        return None\n"
        "def reraised(session, ticket):\n"
        "    try:\n"
        "        return session.solve(ticket.request)\n"
        "    except BrokenPipeError:\n"
        "        raise\n"
        "def unrelated(mapping, key):\n"
        "    try:\n"
        "        return mapping[key]\n"
        "    except KeyError:\n"
        "        return None\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_fixture(
            tmp_path, self.BAD, ["REP013"], name="service_fixture.py"
        )
        assert codes_and_lines(report) == [("REP013", 4), ("REP013", 9)]
        by_line = {f.line: f for f in report.findings}
        # process() is a service entry; the nested helper carries a chain.
        assert by_line[4].chain == (
            "service_fixture.process",
            "service_fixture._solve_ticket",
        )
        assert by_line[9].chain == ("service_fixture.process",)
        assert "journal" in by_line[9].message

    def test_good_fixture(self, tmp_path):
        report = lint_fixture(
            tmp_path, self.GOOD, ["REP013"], name="service_fixture.py"
        )
        assert report.findings == ()

    def test_shipped_service_package_is_clean(self):
        service_dir = REPO_ROOT / "src" / "repro" / "service"
        report = run_lint([service_dir], select=["REP013"])
        assert report.findings == ()


# ----------------------------------------------------------------------
# REP010: hot-path complexity
# ----------------------------------------------------------------------
class TestRep010HotPath:
    BAD = (
        "def hot(items):\n"
        "    seen = []\n"
        "    for item in items:\n"
        "        if item in seen:\n"
        "            continue\n"
        "        seen = seen + [item]\n"
        "        pos = seen.index(item)\n"
        "    events = list(items)\n"
        "    while events:\n"
        "        events = sorted(events)\n"
        "        events.pop()\n"
    )
    GOOD = (
        "import heapq\n"
        "def cool(items):\n"
        "    seen = set()\n"
        "    out = []\n"
        "    for item in items:\n"
        "        if item in seen:\n"
        "            continue\n"
        "        seen.add(item)\n"
        "        out.append(item)\n"
        "    heap = list(out)\n"
        "    heapq.heapify(heap)\n"
        "    while heap:\n"
        "        heapq.heappop(heap)\n"
        "    return out\n"
    )

    def test_bad_fixture(self, tmp_path):
        report = lint_fixture(tmp_path, self.BAD, ["REP010"])
        assert codes_and_lines(report) == [
            ("REP010", 4),
            ("REP010", 6),
            ("REP010", 7),
            ("REP010", 10),
        ]

    def test_good_fixture(self, tmp_path):
        report = lint_fixture(tmp_path, self.GOOD, ["REP010"])
        assert report.findings == ()

    def test_annotated_list_parameter_counts(self, tmp_path):
        source = (
            "from typing import List\n"
            "def scan(rows: List[int], probes):\n"
            "    for probe in probes:\n"
            "        if probe in rows:\n"
            "            return probe\n"
            "    return None\n"
        )
        report = lint_fixture(tmp_path, source, ["REP010"])
        assert codes_and_lines(report) == [("REP010", 4)]

    def test_membership_against_set_is_fine(self, tmp_path):
        source = (
            "def scan(items):\n"
            "    seen = set()\n"
            "    for item in items:\n"
            "        if item in seen:\n"
            "            continue\n"
            "        seen.add(item)\n"
        )
        report = lint_fixture(tmp_path, source, ["REP010"])
        assert report.findings == ()


# ----------------------------------------------------------------------
# Shipped tree + CLI-facing integration
# ----------------------------------------------------------------------
class TestShippedTreeInterprocedural:
    def test_shipped_tree_is_rep007_to_rep011_clean(self):
        report = run_lint(
            [REPO_ROOT / "src" / "repro"],
            select=["REP007", "REP008", "REP009", "REP010", "REP011"],
            source_roots=[REPO_ROOT / "src", REPO_ROOT],
        )
        assert report.findings == ()

    def test_shipped_executor_entry_points_are_discovered(self):
        analysis = analyze_paths(
            sorted((REPO_ROOT / "src" / "repro" / "engine").rglob("*.py")),
            [REPO_ROOT / "src"],
            display_root=REPO_ROOT,
        )
        assert "repro.engine.executor._execute_chunk" in analysis.call_graph.entry_points
        assert "repro.engine.executor._init_worker" in analysis.call_graph.entry_points
        # _execute_task is no longer dispatched directly (the parent chunks
        # tasks itself to keep the watchdog's timeout API) but must stay
        # worker-reachable through _execute_chunk.
        reachable = analysis.worker_reachable()
        assert "repro.engine.executor._execute_task" in reachable

    def test_shipped_worker_fault_plan_is_fork_local_sanctioned(self):
        analysis = analyze_paths(
            sorted((REPO_ROOT / "src" / "repro").rglob("*.py")),
            [REPO_ROOT / "src"],
            display_root=REPO_ROOT,
        )
        fork_local = analysis.table.fork_local_names("repro.engine.executor")
        assert "_WORKER_FAULTS" in fork_local
