"""R6 access-entrypoint: one phase pipeline, delegators elsewhere.

PR 4 established the single-access invariant: all block accesses flow
through one phase-instrumented pipeline so crash checkpoints, stats,
and policy hooks see every access.  PR 7's ``WindowScheduler`` added a
second ``def access`` as a *front end* that delegates into the engine,
which is fine — but a copy of the pipeline (a second function running
its own phases/checkpoints) would silently fork the invariant.

The widened invariant this rule enforces:

* exactly one **pipeline** ``access`` exists under ``engine/`` — a
  method that calls ``_checkpoint`` (directly or via phase helpers is
  not detected; the canonical ``AccessEngine.access`` calls it
  directly);
* every other ``def access`` in scope must be a **pure delegator**: it
  contains a ``.access(...)`` call on some delegate and performs no
  phase mechanics of its own (no ``_checkpoint``, no drainer round
  start/end).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.analyze.astutil import attr_chain, calls_in, in_dirs
from repro.analyze.model import Finding
from repro.analyze.source import FunctionInfo, Project, SourceFile

SCOPE_DIRS = ("engine", "oram", "serve", "hybrid")

#: The one function allowed to run the phase pipeline.
CANONICAL = ("engine/base.py", "AccessEngine.access")

_PHASE_MECHANICS = {"_checkpoint", "start", "end", "begin_round", "end_round"}


def _terminal_calls(node: ast.AST) -> List[Tuple[str, int]]:
    out = []
    for call in calls_in(node):
        chain = attr_chain(call.func)
        if chain is not None:
            out.append((chain.rsplit(".", 1)[-1], call.lineno))
    return out


class AccessEntrypointRule:
    name = "access-entrypoint"
    rule_id = "R6"
    description = (
        "exactly one phase-pipeline access(); other access() defs must "
        "be pure delegators with no phase mechanics"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        pipelines: List[Tuple[SourceFile, FunctionInfo]] = []
        delegators: List[Tuple[SourceFile, FunctionInfo]] = []
        for sf in project:
            if not in_dirs(sf.relpath, SCOPE_DIRS):
                continue
            for info in sf.functions:
                if info.node.name != "access":
                    continue
                terminals = {t for t, _ in _terminal_calls(info.node)}
                if "_checkpoint" in terminals:
                    pipelines.append((sf, info))
                else:
                    delegators.append((sf, info))

        canonical_seen = False
        for sf, info in pipelines:
            is_canonical = (
                sf.relpath.endswith(CANONICAL[0])
                and info.qualname == CANONICAL[1]
            )
            if is_canonical and not canonical_seen:
                canonical_seen = True
                continue
            yield self._finding(
                sf,
                info.lineno,
                info.qualname,
                "second phase-pipeline access() detected (calls "
                "_checkpoint) — all instrumented accesses must flow "
                f"through {CANONICAL[1]} in {CANONICAL[0]}; delegate "
                "into it instead of running phases here",
            )
        if not canonical_seen:
            # The canonical pipeline vanished entirely — also a violation
            # (someone renamed or gutted it without updating the invariant).
            for sf in project:
                if sf.relpath.endswith(CANONICAL[0]):
                    yield self._finding(
                        sf,
                        1,
                        CANONICAL[1],
                        f"canonical pipeline {CANONICAL[1]} not found in "
                        f"{CANONICAL[0]} — the single-access invariant has "
                        "no anchor; update CANONICAL if it moved",
                    )
                    break

        for sf, info in delegators:
            problems = []
            terminal_lines = _terminal_calls(info.node)
            delegates = [
                (t, ln) for t, ln in terminal_lines if t == "access"
            ]
            if not delegates:
                problems.append(
                    "delegator access() never calls a delegate's .access()"
                )
            mechanics = sorted(
                {t for t, _ in terminal_lines} & _PHASE_MECHANICS
            )
            if mechanics:
                problems.append(
                    "delegator access() performs phase mechanics "
                    f"({', '.join(mechanics)}) of its own"
                )
            for problem in problems:
                yield self._finding(
                    sf,
                    info.lineno,
                    info.qualname,
                    problem
                    + " — a non-pipeline access() must purely forward to "
                    "the engine so checkpoints and stats stay centralized",
                )

    def _finding(self, sf: SourceFile, line: int, symbol: str, message: str) -> Finding:
        return Finding(
            rule=self.name,
            rule_id=self.rule_id,
            path=sf.relpath,
            line=line,
            symbol=symbol,
            message=message,
        )
