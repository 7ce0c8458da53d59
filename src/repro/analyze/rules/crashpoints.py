"""R2 crash-point-coverage: declared labels ⟺ injection sites.

The crash-conformance matrix (:mod:`repro.crashsim`) enumerates the
labels a controller *declares* (``PIPELINE_PHASES`` and the policies'
``*_CRASH_POINTS`` tuples) and arms the injector at each.  A label
declared but never announced by a ``_checkpoint(...)`` call is a cell
the matrix silently never tests; a label announced but never declared
is a window no campaign can target.
Both directions drift easily as policies grow — this rule pins them.

It also requires every atomic WPQ round in policy code to announce at
least one checkpoint while the round is open: a ``start()``/``end()``
bracket with no label inside is an uninjectable atomicity window.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Tuple

from repro.analyze.astutil import attr_chain, calls_in, const_str, in_dirs
from repro.analyze.model import Finding
from repro.analyze.source import Project, SourceFile
from repro.analyze.rules.persist import _FunctionScan

_DECLARED_NAME = re.compile(r"(^|_)(CRASH_POINTS|PIPELINE_PHASES)$")

#: Directories whose atomic rounds must contain an injectable label.
#: "integrity" keeps the integrity domain's persist-commit window honest:
#: its INTEGRITY_CRASH_POINTS declarations must match the _checkpoint
#: literals it fires, in both directions, like any policy's.
ROUND_SCOPE_DIRS = ("engine", "core", "integrity")
ROUND_EXCLUDED_FILES = ("core/drainer.py", "mem/wpq.py")


class CrashPointCoverageRule:
    name = "crash-point-coverage"
    rule_id = "R2"
    description = (
        "every declared crash-injection label has an injection site and "
        "vice versa; every atomic WPQ round announces a checkpoint"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        declared: Dict[str, Tuple[SourceFile, int]] = {}
        injected: Dict[str, Tuple[SourceFile, int]] = {}
        for sf in project:
            for label, line in self._declared_labels(sf):
                declared.setdefault(label, (sf, line))
            for label, line in self._injected_labels(sf):
                injected.setdefault(label, (sf, line))
        for label, (sf, line) in sorted(declared.items()):
            if label not in injected:
                yield self._finding(
                    sf,
                    line,
                    "",
                    f"crash point {label!r} is declared but no _checkpoint "
                    "call ever announces it — the conformance matrix plans "
                    "an injection cell that can never fire",
                )
        for label, (sf, line) in sorted(injected.items()):
            if label not in declared:
                sym = ""
                info = sf.enclosing_function(line)
                if info is not None:
                    sym = info.qualname
                yield self._finding(
                    sf,
                    line,
                    sym,
                    f"checkpoint {label!r} is announced but declared in no "
                    "*_CRASH_POINTS / PIPELINE_PHASES collection — no crash "
                    "campaign can target this window",
                )
        yield from self._check_round_labels(project)

    # -- label collection --------------------------------------------------

    @staticmethod
    def _declared_labels(sf: SourceFile) -> Iterator[Tuple[str, int]]:
        for node in sf.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if not _DECLARED_NAME.search(target.id):
                    continue
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    for elt in node.value.elts:
                        value = const_str(elt)
                        if value is not None:
                            yield value, elt.lineno

    @staticmethod
    def _injected_labels(sf: SourceFile) -> Iterator[Tuple[str, int]]:
        for call in calls_in(sf.tree):
            chain = attr_chain(call.func)
            if chain is None or chain.rsplit(".", 1)[-1] != "_checkpoint":
                continue
            if not call.args:
                continue
            value = const_str(call.args[0])
            if value is not None:
                yield value, call.lineno

    # -- round label coverage ----------------------------------------------

    def _check_round_labels(self, project: Project) -> Iterator[Finding]:
        for sf in project:
            if not in_dirs(sf.relpath, ROUND_SCOPE_DIRS):
                continue
            if any(sf.relpath.endswith(ex) for ex in ROUND_EXCLUDED_FILES):
                continue
            for info in sf.functions:
                scan = _FunctionScan(info)
                starts: List = scan.nodes_with("start")
                for start in starts:
                    if not scan.reaches_event_before(
                        start, want="checkpoint", before="end"
                    ):
                        yield self._finding(
                            sf,
                            start.stmt.lineno,
                            info.qualname,
                            "atomic WPQ round announces no checkpoint while "
                            "open — the crash matrix cannot cut power inside "
                            "this window",
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
