"""The built-in lint rules (REP001-REP011, REP013).

Importing this package registers every rule into the process-wide
:func:`~repro.staticcheck.engine.default_rule_registry` -- the exact
bootstrap idiom of :mod:`repro.solvers.builtin`.

=========  ==============================================================
REP001     Nondeterministic iteration over a ``set``/``frozenset`` (or a
           partial-order sort key) in modules that feed schedule output.
REP002     Unseeded ``random`` / wall-clock (``time.time``,
           ``datetime.now``) use inside solver or kernel code.
REP003     Float ``==``/``!=`` comparisons in makespan/width arithmetic.
REP004     Fork-unsafe ``FlatExecutor`` payloads: lambdas/closures/bound
           methods/``functools.partial`` submitted as tasks, mutable
           module globals mutated outside worker initializers.
REP005     Wire-format freeze: dataclass shapes must match the pinned
           ``benchmarks/wire_schema.json`` snapshot.
REP006     Registry hygiene: every ``@register_solver`` declares
           capabilities and a docstring.
REP007     Worker-reachable mutation: functions reachable from executor
           task entry points must not write module-level state outside
           the priming protocol (interprocedural).
REP008     Unprimed worker cache: ``lru_cache`` memos reachable in
           forked workers must be primed pre-fork or declared
           ``# repro: fork-local`` (interprocedural).
REP009     Swallowed failures on the parallel path: broad/bare
           ``except`` in ``engine/``/``solvers/`` discarding the
           exception without re-raise, degraded flag, or logging.
REP010     Hot-path complexity: O(n^2) idioms (list membership /
           concatenation / ``.index()`` in loops, ``sorted()`` in the
           event loop) in ``core/``/``wrapper/``.
REP011     Unjournalled recovery: handlers catching pool/timeout/
           broken-pipe/fault exceptions in ``engine/`` must record a
           ``FailureRecord`` (``failure``/``journal``/``record`` call)
           or re-raise, so the recovery ladder sees every fault.
REP013     Unsettled service handler: handlers catching outcome-class
           exceptions (``CancelledSolve``/``SolverError``/broad
           ``Exception``/pipe errors) in ``service/`` must settle the
           request -- journal its ``completed``/``failed`` record and
           deliver -- or re-raise, so journal replay stays a complete
           account of every request.
=========  ==============================================================

REP007--REP010 are *project* rules built on the interprocedural layer in
:mod:`repro.staticcheck.analysis`; their findings carry witness call
chains (entry point -> ... -> violation site).
"""

from repro.staticcheck.rules import (  # noqa: F401  (imported for registration)
    rep001_iteration,
    rep002_wallclock,
    rep003_floateq,
    rep004_forksafety,
    rep005_wireschema,
    rep006_registry,
    rep007_workermutation,
    rep008_workercache,
    rep009_swallowed,
    rep010_hotpath,
    rep011_recovery,
    rep013_service,
)
