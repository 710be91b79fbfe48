"""REP007: module-level mutation reachable from forked workers.

The flat executor's correctness story (bit-identical schedules for
workers ∈ {0, 1, 2, 4}) rests on worker processes being *functionally
pure* after the fork: a task may read the pre-forked caches installed by
``prime_context_caches`` / the pool initializer, but any write to
module-level state diverges silently between workers and parent.

This rule walks the project call graph from the executor's task entry
points (pool-submitted payloads) and worker initializers, and reports
every reachable function whose body writes a module-level name -- unless
the write is sanctioned:

* the writer is a pool initializer (``_init_worker`` / ``*_initializer``)
  or part of the pre-fork priming protocol (``prime_context_caches`` /
  ``_prime_soc_pairs``), which run exactly once per worker/parent;
* the written global (or the writer function) is declared fork-local with
  a ``# repro: fork-local`` pragma on its definition line -- the explicit
  opt-in for worker-private state (memos, the installed fault plan).

Findings carry the witness call chain (entry point -> ... -> writer) so
the path can be reviewed by hand.
"""

from __future__ import annotations

from typing import Iterator

from repro.staticcheck.analysis.callgraph import is_initializer_name
from repro.staticcheck.engine import Finding, LintRule, ProjectContext, register_rule

#: Functions of the pre-fork priming protocol (run before workers exist
#: or once per worker), allowed to populate module-level caches.
SANCTIONED_WRITERS = ("prime_context_caches", "_prime_soc_pairs")


def _writer_sanctioned(name: str) -> bool:
    return name in SANCTIONED_WRITERS or is_initializer_name(name)


@register_rule
class WorkerMutationRule(LintRule):
    """Worker-reachable writes to module-level state."""

    code = "REP007"
    name = "worker-mutation"
    description = (
        "functions reachable from executor task entry points must not write "
        "module-level state outside the priming protocol "
        "(sanction deliberate worker-side state with '# repro: fork-local')"
    )

    def check_project(self, context: ProjectContext) -> Iterator[Finding]:
        analysis = context.analysis()
        table = analysis.table
        reachable = analysis.worker_reachable()
        for ident in sorted(reachable):
            symbol = table.functions.get(ident)
            if symbol is None:
                continue
            if _writer_sanctioned(symbol.name):
                continue
            fork_local = table.fork_local_names(symbol.module)
            if symbol.name in fork_local:
                continue
            effects = analysis.local_effects.get(ident)
            if effects is None:
                continue
            for write in effects.global_writes:
                if write.name in table.fork_local_names(write.module):
                    continue
                yield Finding(
                    path=write.path,
                    line=write.line,
                    column=0,
                    rule=self.code,
                    severity=self.severity,
                    message=(
                        f"{symbol.qualname!r} is reachable from a worker entry "
                        f"point but writes module global {write.name!r}; forked "
                        "workers diverge silently -- move the write into the "
                        "priming protocol or declare the global "
                        "'# repro: fork-local'"
                    ),
                    chain=reachable[ident],
                )
