"""R1 persist-ordering: WPQ rounds must open, commit, and flush in order.

The crash-consistency argument of the PS-ORAM protocol rests on the
drainer's round discipline (paper Section 4.1/4.2.2): persistent-domain
writes are *pushed* into an *open* round, the round is *ended* (from that
instant ADR guarantees durability), and the queues are *flushed*.  The
two real bugs the PR 5 conformance matrix found were both violations of
statically checkable corollaries — so this rule checks them up front:

* **R1.1 unfenced write** — on every CFG path, a push must reach the
  drainer's ``end()`` (and that ``end()`` a ``flush()``) before the
  function exits or the next round opens.  A push left in an open round
  at exit is exactly the write that silently vanishes on a crash.
* **R1.2 push outside a round** — every path reaching a push must have
  passed ``start()`` first (the WPQ raises at runtime; this catches it
  before any test runs).
* **R1.3 unbounded round** — a loop that pushes into an open round must
  be *visibly* bounded by a WPQ capacity: the loop's source collection
  must be tied (in this function) to a ``capacity``-derived bound, a
  ``plan_rounds`` split, or fixed structural geometry (``range``,
  ``enumerate``, tree/store path helpers).  The Naive-PS WPQ overflow
  (PR 5) was an instance: leftover entries dumped into a data round with
  no capacity clamp.
* **R1.4 crash flush vs in-flight remap** — a policy whose ``remap``
  parks in-flight state in instance attributes and whose ``crash`` writes
  the persistent image directly (eADR-style residual-energy flush) must
  consult that state on every path before the first persistent write.
  The eADR remap-rollback bug (PR 5) was an instance: the crash flush
  persisted a PosMap mapping whose block still carried the old label.

Scope: the policy/controller layers (``engine/``, ``core/``,
``hybrid/``).  The WPQ/drainer mechanics themselves
(``core/drainer.py``, ``mem/wpq.py``) implement
the contract and are excluded.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set

from repro.analyze.astutil import (
    assigned_names,
    attr_chain,
    calls_in,
    header_exprs,
    in_dirs,
    terminal_name,
)
from repro.analyze.cfg import CFG, Node, build_cfg
from repro.analyze.model import Finding
from repro.analyze.source import FunctionInfo, Project, SourceFile

SCOPE_DIRS = ("engine", "core", "hybrid")
EXCLUDED_FILES = ("core/drainer.py", "mem/wpq.py")

#: Direct persistent-image writes (outside the WPQ path) relevant to R1.4.
DIRECT_PERSIST_TERMINALS = {"write_entry", "store_line", "store_slot"}

#: Evidence that a collection feeding an in-round push loop is bounded.
_CAPACITY_EVIDENCE = re.compile(r"capacity|plan_rounds|room|needed")

#: Geometry helpers whose result size is fixed by the tree shape.
_STRUCTURAL_CHAIN = re.compile(r"(^|\.)(store|tree|layout|params)(\.|$)")


def _classify_call(call: ast.Call) -> Optional[str]:
    chain = attr_chain(call.func)
    if chain is None:
        return None
    terminal = chain.rsplit(".", 1)[-1]
    drainerish = "drainer" in chain
    if terminal == "start" and drainerish or terminal == "begin_round":
        return "start"
    if terminal == "end" and drainerish or terminal == "end_round":
        return "end"
    if terminal in ("push_block", "push_posmap_entry"):
        return "push"
    if terminal == "push" and "wpq" in chain:
        return "push"
    if terminal == "flush" and drainerish:
        return "flush"
    if terminal == "_checkpoint":
        return "checkpoint"
    if terminal in DIRECT_PERSIST_TERMINALS:
        return "persist"
    return None


def node_events(node: Node) -> Set[str]:
    """Round events the CFG node itself performs."""
    if node.stmt is None:
        return set()
    events: Set[str] = set()
    for expr in header_exprs(node.stmt):
        if expr is None:
            continue
        for call in calls_in(expr):
            kind = _classify_call(call)
            if kind:
                events.add(kind)
    return events


class _FunctionScan:
    """Round-event view of one function's CFG."""

    def __init__(self, info: FunctionInfo):
        self.info = info
        self.cfg: CFG = build_cfg(info.node)
        self.events: Dict[int, Set[str]] = {
            id(n): node_events(n) for n in self.cfg.nodes
        }
        self.preds: Dict[int, List[Node]] = {id(n): [] for n in self.cfg.nodes}
        for n in self.cfg.nodes:
            for succ in n.succs:
                self.preds[id(succ)].append(n)

    def nodes_with(self, event: str) -> List[Node]:
        return [n for n in self.cfg.nodes if event in self.events[id(n)]]

    def path_hits_before(
        self, start: Node, flag: str, stop: str, include_exit_in_flag: bool
    ) -> Optional[Node]:
        """First node on any path from ``start`` carrying ``flag`` before
        any ``stop`` node (exit counts as a flag when requested)."""
        seen: Set[int] = set()
        stack = list(start.succs)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            ev = self.events[id(node)]
            if stop in ev:
                continue
            if flag in ev or (include_exit_in_flag and node is self.cfg.exit):
                return node
            stack.extend(node.succs)
        return None

    def reaches_event_before(self, start: Node, want: str, before: str) -> bool:
        """Whether some path from ``start`` hits ``want`` before ``before``."""
        seen: Set[int] = set()
        stack = list(start.succs)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            ev = self.events[id(node)]
            if want in ev:
                return True
            if before in ev:
                continue
            stack.extend(node.succs)
        return False

    def entry_reaches_without(self, target: Node, guard: str) -> bool:
        """Whether a backward path from ``target`` reaches entry with no
        ``guard`` node on it (i.e. ``target`` is not dominated by guard)."""
        seen: Set[int] = set()
        stack = list(self.preds[id(target)])
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if guard in self.events[id(node)]:
                continue
            if node is self.cfg.entry:
                return True
            stack.extend(self.preds[id(node)])
        return False


# ---------------------------------------------------------------------------
# R1.3 bounded-round evidence
# ---------------------------------------------------------------------------


def _structurally_bounded(expr: ast.AST) -> Optional[bool]:
    """True: bounded by construction; None: needs name evidence."""
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        return True
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func) or ""
        terminal = chain.rsplit(".", 1)[-1]
        if terminal in ("range", "zip"):
            return True
        if terminal in ("enumerate", "reversed", "sorted", "list", "tuple"):
            inner = expr.args[0] if expr.args else None
            return _structurally_bounded(inner) if inner is not None else True
        if _STRUCTURAL_CHAIN.search(chain):
            return True  # tree/store geometry: sized by the layout
        return None
    if isinstance(expr, ast.Subscript):
        return _structurally_bounded(expr.value)
    return None


def _iterable_names(expr: ast.AST) -> Set[str]:
    name = terminal_name(expr)
    if name is not None:
        return {name}
    if isinstance(expr, ast.Call) and expr.args:
        return _iterable_names(expr.args[0])
    if isinstance(expr, ast.Subscript):
        return _iterable_names(expr.value)
    return set()


class _BoundEvidence:
    """Name-level capacity evidence within one function body."""

    def __init__(self, func: ast.AST):
        #: name -> set of statements' source names it co-occurs with
        self.evidence: Set[str] = set()
        self.for_sources: Dict[str, Set[str]] = {}
        for stmt in ast.walk(func):
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                for target in assigned_names(stmt):
                    self.for_sources.setdefault(target, set()).update(
                        _iterable_names(stmt.iter)
                    )
            if not isinstance(stmt, ast.stmt):
                continue
            # Only the statement's *own* expressions spread evidence — a
            # compound statement (the whole function body is one!) must
            # not launder a capacity mention onto every name inside it.
            text_names: Set[str] = set()
            for expr in header_exprs(stmt):
                text_names |= {
                    n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
                } | {
                    a.attr for a in ast.walk(expr) if isinstance(a, ast.Attribute)
                }
            if any(_CAPACITY_EVIDENCE.search(n) for n in text_names):
                self.evidence.update(text_names)

    def bounded(self, name: str, depth: int = 0) -> bool:
        if name in self.evidence:
            return True
        if depth < 2:
            for source in self.for_sources.get(name, ()):
                if self.bounded(source, depth + 1):
                    return True
        return False


# ---------------------------------------------------------------------------
# the rule
# ---------------------------------------------------------------------------


class PersistOrderingRule:
    name = "persist-ordering"
    rule_id = "R1"
    description = (
        "persistent-domain writes must open, commit (end), and flush their "
        "WPQ round on every path, with visibly bounded round sizes"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for sf in project:
            if not in_dirs(sf.relpath, SCOPE_DIRS):
                continue
            if any(sf.relpath.endswith(ex) for ex in EXCLUDED_FILES):
                continue
            yield from self._check_file(sf)

    def _finding(self, sf: SourceFile, line: int, symbol: str, message: str) -> Finding:
        return Finding(
            rule=self.name,
            rule_id=self.rule_id,
            path=sf.relpath,
            line=line,
            symbol=symbol,
            message=message,
        )

    def _check_file(self, sf: SourceFile) -> Iterator[Finding]:
        for info in sf.functions:
            scan = _FunctionScan(info)
            yield from self._check_round_order(sf, info, scan)
            yield from self._check_bounded_rounds(sf, info)
        yield from self._check_crash_inflight(sf)

    # -- R1.1 / R1.2 ------------------------------------------------------

    def _check_round_order(
        self, sf: SourceFile, info: FunctionInfo, scan: _FunctionScan
    ) -> Iterator[Finding]:
        for push in scan.nodes_with("push"):
            # R1.2: a path from entry reaching the push without start().
            if scan.entry_reaches_without(push, "start"):
                yield self._finding(
                    sf,
                    push.stmt.lineno,
                    info.qualname,
                    "WPQ push reachable without an open drainer round "
                    "(no start() dominates it)",
                )
            # R1.1: a path from the push to exit / next start without end().
            offender = scan.path_hits_before(
                push, flag="start", stop="end", include_exit_in_flag=True
            )
            if offender is not None:
                where = (
                    "function exit"
                    if offender.stmt is None
                    else f"next round open at line {offender.stmt.lineno}"
                )
                yield self._finding(
                    sf,
                    push.stmt.lineno,
                    info.qualname,
                    f"WPQ push can reach {where} without the round's end() — "
                    "an uncommitted round is discarded on crash",
                )
        for end in scan.nodes_with("end"):
            offender = scan.path_hits_before(
                end, flag="start", stop="flush", include_exit_in_flag=True
            )
            if offender is not None:
                where = (
                    "function exit"
                    if offender.stmt is None
                    else f"next round open at line {offender.stmt.lineno}"
                )
                yield self._finding(
                    sf,
                    end.stmt.lineno,
                    info.qualname,
                    f"committed round can reach {where} without flush() — "
                    "entries would never drain to the NVM image",
                )

    # -- R1.3 -------------------------------------------------------------

    def _check_bounded_rounds(
        self, sf: SourceFile, info: FunctionInfo
    ) -> Iterator[Finding]:
        evidence = _BoundEvidence(info.node)
        loops: List[ast.stmt] = [
            n
            for n in ast.walk(info.node)
            if isinstance(n, (ast.For, ast.AsyncFor, ast.While))
        ]
        for loop in loops:
            pushes = [
                call
                for stmt in loop.body
                for call in calls_in(stmt)
                if _classify_call(call) == "push"
            ]
            if not pushes:
                continue
            # A push loop that also opens/commits its own round per
            # iteration is round-per-item: each iteration's round holds a
            # fixed number of pushes, so capacity is respected trivially.
            kinds = {
                _classify_call(call)
                for stmt in loop.body
                for call in calls_in(stmt)
            }
            if "start" in kinds and "end" in kinds:
                continue
            if isinstance(loop, ast.While):
                names = _iterable_names(loop.test)
            else:
                names = _iterable_names(loop.iter)
                structural = _structurally_bounded(loop.iter)
                if structural:
                    continue
            if names and any(evidence.bounded(n) for n in names):
                continue
            source = ", ".join(sorted(names)) if names else "<expression>"
            yield self._finding(
                sf,
                loop.lineno,
                info.qualname,
                f"in-round push loop over {source!r} has no visible WPQ "
                "capacity bound (capacity clamp, plan_rounds split, or "
                "structural geometry)",
            )

    # -- R1.4 -------------------------------------------------------------

    def _check_crash_inflight(self, sf: SourceFile) -> Iterator[Finding]:
        classes = [
            node for node in ast.walk(sf.tree) if isinstance(node, ast.ClassDef)
        ]
        for cls in classes:
            remap = None
            crash = None
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    if item.name == "remap":
                        remap = item
                    elif item.name == "crash":
                        crash = item
            if remap is None or crash is None:
                continue
            inflight = self._inflight_attrs(remap)
            if not inflight:
                continue
            persist_lines = self._direct_persist_lines(crash)
            if not persist_lines:
                continue
            info = next(
                (f for f in sf.functions if f.node is crash), None
            )
            if info is None:  # pragma: no cover - defensive
                continue
            scan = _FunctionScan(info)
            offender = self._persist_before_read(scan, inflight)
            if offender is not None:
                yield self._finding(
                    sf,
                    offender,
                    info.qualname,
                    "crash-time persistent flush can run before the in-flight "
                    f"remap state ({', '.join(sorted(inflight))}) is resolved "
                    "— an interrupted access's mapping may persist pointing "
                    "at a path that never received the block",
                )

    @staticmethod
    def _inflight_attrs(remap: ast.FunctionDef) -> Set[str]:
        attrs: Set[str] = set()
        for node in ast.walk(remap):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    attrs.add(node.attr)
        return attrs

    @staticmethod
    def _direct_persist_lines(crash: ast.FunctionDef) -> List[int]:
        return [
            call.lineno
            for call in calls_in(crash)
            if _classify_call(call) == "persist"
        ]

    def _persist_before_read(
        self, scan: _FunctionScan, inflight: Set[str]
    ) -> Optional[int]:
        """Line of a persist call reachable before any read of ``inflight``."""

        def reads_inflight(node: Node) -> bool:
            if node.stmt is None:
                return False
            for expr in header_exprs(node.stmt):
                if expr is None:
                    continue
                for sub in ast.walk(expr):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Load)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and sub.attr in inflight
                    ):
                        return True
            return False

        seen: Set[int] = set()
        stack = list(scan.cfg.entry.succs)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if reads_inflight(node):
                continue
            if "persist" in scan.events[id(node)]:
                return node.stmt.lineno
            stack.extend(node.succs)
        return None
