"""R4 determinism: the simulation core must be bit-reproducible.

The digest harness (``repro.exec.digest``) asserts that every variant
produces identical state digests across runs and platforms.  That only
holds if the core never consults wall-clock time, OS entropy, or the
interpreter's randomized hash order.  Three families of violations:

* wall-clock / entropy calls: ``time.time()``, ``datetime.now()``,
  ``os.urandom()``, ``uuid.uuid4()``, ``secrets.*``;
* the *module-level* ``random.<func>()`` API (shared, seed-ambiguous
  global state) — a seeded ``random.Random(seed)`` instance is fine;
* iterating a ``set`` (literal, comprehension, or ``set()`` call) in a
  ``for`` loop or comprehension: iteration order varies per process
  unless wrapped in ``sorted()``.

Scope: the deterministic core (engine/crypto/mem/oram/core/hybrid/
util).  ``exec`` and ``report`` may time things and are exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analyze.astutil import attr_chain, calls_in, in_dirs
from repro.analyze.model import Finding
from repro.analyze.source import Project, SourceFile

SCOPE_DIRS = ("engine", "crypto", "mem", "oram", "core", "hybrid", "util")

#: Full dotted call names that are nondeterministic across runs.
BANNED_CALLS = {
    "time.time": "wall-clock time",
    "time.perf_counter": "wall-clock time",
    "time.monotonic": "wall-clock time",
    "time.process_time": "wall-clock time",
    "datetime.now": "wall-clock time",
    "datetime.utcnow": "wall-clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "os.urandom": "OS entropy",
    "uuid.uuid4": "OS entropy",
    "uuid.uuid1": "host state",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.randbelow": "OS entropy",
    "secrets.choice": "OS entropy",
}

#: random-module functions that use the hidden global (seed-ambiguous) state.
_GLOBAL_RANDOM_FUNCS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "getrandbits",
    "seed",
}


def _set_valued(expr: ast.AST, local_sets: Dict[str, int]) -> Optional[str]:
    """A reason string if ``expr`` evaluates to a raw (unordered) set."""
    if isinstance(expr, ast.Set):
        return "a set literal"
    if isinstance(expr, ast.SetComp):
        return "a set comprehension"
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func)
        if chain == "set":
            return "a set() call"
        if chain is not None and chain.rsplit(".", 1)[-1] in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return f"a set.{chain.rsplit('.', 1)[-1]}() result"
    if isinstance(expr, ast.Name) and expr.id in local_sets:
        return f"a set assigned at line {local_sets[expr.id]}"
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        left = _set_valued(expr.left, local_sets)
        right = _set_valued(expr.right, local_sets)
        if left or right:
            return left or right
    return None


class DeterminismRule:
    name = "determinism"
    rule_id = "R4"
    description = (
        "no wall-clock/entropy calls, global random state, or raw-set "
        "iteration in the deterministic simulation core"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for sf in project:
            if not in_dirs(sf.relpath, SCOPE_DIRS):
                continue
            yield from self._check_calls(sf)
            yield from self._check_set_iteration(sf)

    # -- banned calls -------------------------------------------------------

    def _check_calls(self, sf: SourceFile) -> Iterator[Finding]:
        for call in calls_in(sf.tree):
            chain = attr_chain(call.func)
            if chain is None:
                continue
            reason = BANNED_CALLS.get(chain)
            if reason is not None:
                yield self._finding(
                    sf,
                    call.lineno,
                    self._symbol(sf, call.lineno),
                    f"{chain}() reads {reason} — digests will differ "
                    "between runs; derive values from the seeded config "
                    "instead",
                )
                continue
            if chain.startswith("random."):
                tail = chain[len("random."):]
                if tail in _GLOBAL_RANDOM_FUNCS:
                    yield self._finding(
                        sf,
                        call.lineno,
                        self._symbol(sf, call.lineno),
                        f"{chain}() uses the global random state — use a "
                        "random.Random(seed) instance owned by the "
                        "component so replays are reproducible",
                    )

    # -- set iteration ------------------------------------------------------

    def _check_set_iteration(self, sf: SourceFile) -> Iterator[Finding]:
        for info in sf.functions:
            # one-hop: locals assigned a raw set inside this function
            local_sets: Dict[str, int] = {}
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign) and _set_valued(node.value, {}):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_sets[target.id] = node.lineno
            for node in ast.walk(info.node):
                iters = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append((node.iter, node.lineno))
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for gen in node.generators:
                        iters.append((gen.iter, node.lineno))
                for iter_expr, line in iters:
                    reason = _set_valued(iter_expr, local_sets)
                    if reason is not None:
                        yield self._finding(
                            sf,
                            line,
                            info.qualname,
                            f"iteration over {reason}: set order varies "
                            "between processes — wrap in sorted() to fix "
                            "the visit order",
                        )

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _symbol(sf: SourceFile, line: int) -> str:
        info = sf.enclosing_function(line)
        return info.qualname if info is not None else ""

    def _finding(self, sf: SourceFile, line: int, symbol: str, message: str) -> Finding:
        return Finding(
            rule=self.name,
            rule_id=self.rule_id,
            path=sf.relpath,
            line=line,
            symbol=symbol,
            message=message,
        )
