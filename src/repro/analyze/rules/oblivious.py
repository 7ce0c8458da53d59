"""R3 oblivious: taint-lite obliviousness for the access phases.

An ORAM's security argument is that the *observable* memory behaviour —
which NVM lines are touched, in what number, with what timing — is
independent of the logical address and payload being accessed.  On-chip
work (stash scans, header compares) may branch on secrets freely; what
must not happen is a secret *selecting a memory address*, *guarding a
memory operation*, or *bounding a loop that touches memory*.

Seeds: inside the pipeline phase hooks (fetch / absorb / program-op /
evict and the policy hooks around them), parameters named ``address`` /
``target_address`` / ``data`` / ``payload`` are secret, as is any name
listed in a ``# analyze: secret(...)`` directive on the ``def`` line.
Taint propagates through assignments; it is *declassified* through the
position-map view (``posmap``/``temp_posmap`` lookups return path ids,
which the protocol makes uniformly random and public) and through the
RNG and ``len`` (block payloads are fixed-size).

Flagged sinks:

* a tainted expression used as an argument of a memory-address helper or
  timed memory operation (``issue``, ``load_line``, ``slot_address``,
  ``entry_address``, ``write_entry``, ...);
* a branch whose test is tainted and whose body performs a memory
  operation or advances the modeled clock (``now``);
* a ``range()`` loop bound that is tainted while the body touches memory.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analyze.astutil import attr_chain, calls_in, in_dirs
from repro.analyze.model import Finding
from repro.analyze.source import FunctionInfo, Project, SourceFile

SCOPE_DIRS = ("engine", "oram", "core", "hybrid")

#: Phase hooks whose address/payload parameters are secret by default.
PHASE_FUNCS = {
    "access",
    "read",
    "write",
    "read_modify_write",
    "_lookup_phase",
    "_fetch_blocks",
    "_absorb_fetched",
    "_absorb_blocks",
    "_apply_program_op",
    "_after_fetch",
    "_evict",
    "evict",
    "_plan_eviction",
    "remap",
    "pre_relabel",
    "post_relabel",
    "_relieve_temp_posmap",
}

DEFAULT_SECRET_PARAMS = {"address", "target_address", "data", "payload"}

#: Memory-address helpers and timed memory operations (sinks).
MEMORY_OP_TERMINALS = {
    "issue",
    "issue_path",
    "load_line",
    "store_line",
    "read_path",
    "write_path",
    "read_path_headers",
    "slot_address",
    "entry_address",
    "metadata_address",
    "write_entry",
    "load_slot",
    "store_slot",
    "read_slot_timed",
    "write_slot_timed",
    "read_metadata_timed",
    "write_metadata_timed",
    "path_addresses",
    "path_buckets",
    "bucket_index",
}

#: Calls whose results are public even with tainted arguments.
_DECLASSIFY_SUBSTRINGS = ("posmap", "rng", "stats", "checkpoint")
_DECLASSIFY_TERMINALS = {"len", "range", "min", "max", "id", "type"}


def _is_declassified(call: ast.Call) -> bool:
    chain = attr_chain(call.func)
    if chain is None:
        return False
    terminal = chain.rsplit(".", 1)[-1]
    if terminal in _DECLASSIFY_TERMINALS:
        return True
    return any(s in chain for s in _DECLASSIFY_SUBSTRINGS)


class _Taint:
    """Intraprocedural taint over plain names and ``self.X`` attributes."""

    def __init__(self, func: ast.AST, seeds: Set[str]):
        self.tainted: Set[str] = set(seeds)
        body = getattr(func, "body", [])
        for _ in range(2):  # two passes reach a fixpoint for simple flows
            for stmt in body:
                self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                if self.expr_tainted(node.value):
                    for target in node.targets:
                        self._taint_target(target)
            elif isinstance(node, ast.AugAssign):
                if self.expr_tainted(node.value):
                    self._taint_target(node.target)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self.expr_tainted(node.iter):
                    self._taint_target(node.target)

    def _taint_target(self, target: ast.expr) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.tainted.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                if node.value.id in ("self", "cls"):
                    self.tainted.add(node.attr)

    def expr_tainted(self, expr: Optional[ast.AST]) -> bool:
        if expr is None:
            return False
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) and _is_declassified(node):
                # A declassified call launders its arguments; but we still
                # must scan siblings, so just skip reporting on this node.
                continue
            if isinstance(node, ast.Name) and node.id in self.tainted:
                if not self._under_declassified(expr, node):
                    return True
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and node.attr in self.tainted
            ):
                if not self._under_declassified(expr, node):
                    return True
        return False

    @staticmethod
    def _under_declassified(root: ast.AST, target: ast.AST) -> bool:
        """Whether ``target`` sits inside a declassified call under ``root``."""
        for call in calls_in(root):
            if _is_declassified(call):
                for sub in ast.walk(call):
                    if sub is target:
                        return True
        return False


def _memory_calls(node: ast.AST) -> List[ast.Call]:
    out = []
    for call in calls_in(node):
        chain = attr_chain(call.func)
        if chain is None:
            continue
        if chain.rsplit(".", 1)[-1] in MEMORY_OP_TERMINALS:
            out.append(call)
    return out


def _advances_clock(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr == "now":
                    return True
    return False


class ObliviousnessRule:
    name = "oblivious"
    rule_id = "R3"
    description = (
        "secret logical addresses/payloads must not select memory "
        "addresses, guard memory operations, or bound memory loops"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for sf in project:
            if not in_dirs(sf.relpath, SCOPE_DIRS):
                continue
            for info in sf.functions:
                yield from self._check_function(sf, info)

    def _seeds(self, info: FunctionInfo) -> Set[str]:
        seeds = set(info.secret_names)
        if info.node.name in PHASE_FUNCS:
            args = info.node.args
            all_args = list(args.posonlyargs) + list(args.args) + list(
                args.kwonlyargs
            )
            for arg in all_args:
                if arg.arg in DEFAULT_SECRET_PARAMS:
                    seeds.add(arg.arg)
        return seeds

    def _check_function(
        self, sf: SourceFile, info: FunctionInfo
    ) -> Iterator[Finding]:
        seeds = self._seeds(info)
        if not seeds:
            return
        taint = _Taint(info.node, seeds)

        # Sink 1: tainted argument to a memory-address helper.
        for call in _memory_calls(info.node):
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                if taint.expr_tainted(arg):
                    chain = attr_chain(call.func) or "<call>"
                    yield self._finding(
                        sf,
                        call.lineno,
                        info.qualname,
                        f"secret-derived value reaches memory operation "
                        f"{chain.rsplit('.', 1)[-1]}() — the touched NVM line "
                        "depends on the logical address",
                    )
                    break

        # Sink 2: tainted branch guarding memory work or the clock.
        for node in ast.walk(info.node):
            if isinstance(node, (ast.If, ast.While)) and taint.expr_tainted(
                node.test
            ):
                guarded = node.body + getattr(node, "orelse", [])
                if any(_memory_calls(s) for s in guarded) or any(
                    _advances_clock(s) for s in guarded
                ):
                    yield self._finding(
                        sf,
                        node.lineno,
                        info.qualname,
                        "secret-dependent branch guards a memory operation "
                        "or clock advance — observable timing depends on "
                        "the secret",
                    )
            # Sink 3: tainted loop bound with memory work in the body.
            if isinstance(node, (ast.For, ast.AsyncFor)):
                bound_tainted = False
                for call in calls_in(node.iter):
                    chain = attr_chain(call.func) or ""
                    if chain.rsplit(".", 1)[-1] == "range" and any(
                        taint.expr_tainted(a) for a in call.args
                    ):
                        bound_tainted = True
                if bound_tainted and any(_memory_calls(s) for s in node.body):
                    yield self._finding(
                        sf,
                        node.lineno,
                        info.qualname,
                        "secret-dependent loop bound around memory "
                        "operations — the number of touched lines depends "
                        "on the secret",
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
