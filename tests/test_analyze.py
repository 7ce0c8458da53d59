"""repro.analyze: per-rule fixtures, suppressions, baseline, CLI, mutations.

The mutation tests are the analyzer's reason to exist: they re-create
the two bugs the PR 5 crash campaign found the hard way — the eADR
remap-rollback loss and the Naive-PS WPQ overflow — by deleting their
fixes from the real sources, and assert R1 catches each statically.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze import run_analysis
from repro.analyze.baseline import Baseline
from repro.analyze.rules import ALL_RULES, rule_by_name, select_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def analyze_fixture(tmp_path, files, rules=None):
    """Write ``files`` (relpath -> source) under tmp_path and analyze."""
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    selected = None if rules is None else [rule_by_name(r) for r in rules]
    return run_analysis([str(tmp_path)], rules=selected)


def active(result, rule_id=None):
    out = [f for f in result.findings if f.active]
    if rule_id is not None:
        out = [f for f in out if f.rule_id == rule_id]
    return out


# ---------------------------------------------------------------------------
# R1 persist-ordering
# ---------------------------------------------------------------------------


class TestPersistOrdering:
    def test_push_without_start(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/bad.py": (
                    "def evict(self):\n"
                    "    c = self.c\n"
                    "    c.drainer.push_blocks([1], [b'x'])\n"
                    "    c.drainer.end()\n"
                    "    c.drainer.flush(0)\n"
                )
            },
            rules=["R1"],
        )
        assert any("no start() dominates" in f.message for f in active(result))

    def test_push_without_end(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/bad.py": (
                    "def evict(self):\n"
                    "    c = self.c\n"
                    "    c.drainer.start()\n"
                    "    c.drainer.push_blocks([1], [b'x'])\n"
                )
            },
            rules=["R1"],
        )
        assert any("without the round's end()" in f.message for f in active(result))

    def test_end_without_flush(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/bad.py": (
                    "def evict(self):\n"
                    "    c = self.c\n"
                    "    c.drainer.start()\n"
                    "    c.drainer.push_blocks([1], [b'x'])\n"
                    "    c.drainer.end()\n"
                )
            },
            rules=["R1"],
        )
        assert any("without flush()" in f.message for f in active(result))

    def test_well_formed_round_is_clean(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/good.py": (
                    "def evict(self):\n"
                    "    c = self.c\n"
                    "    c.drainer.start()\n"
                    "    c.drainer.push_blocks([1], [b'x'])\n"
                    "    c.drainer.end()\n"
                    "    c.drainer.flush(0)\n"
                )
            },
            rules=["R1"],
        )
        assert not active(result)

    def test_unbounded_push_loop(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/bad.py": (
                    "def evict(self, items):\n"
                    "    c = self.c\n"
                    "    c.drainer.start()\n"
                    "    for it in items:\n"
                    "        c.drainer.push_blocks([it], [b'x'])\n"
                    "    c.drainer.end()\n"
                    "    c.drainer.flush(0)\n"
                )
            },
            rules=["R1"],
        )
        assert any("no visible WPQ capacity bound" in f.message for f in active(result))

    def test_capacity_clamped_loop_is_clean(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/good.py": (
                    "def evict(self, items):\n"
                    "    c = self.c\n"
                    "    room = c.drainer.data_wpq.capacity\n"
                    "    items = items[:room]\n"
                    "    c.drainer.start()\n"
                    "    for it in items:\n"
                    "        c.drainer.push_blocks([it], [b'x'])\n"
                    "    c.drainer.end()\n"
                    "    c.drainer.flush(0)\n"
                )
            },
            rules=["R1"],
        )
        assert not active(result)

    def test_batched_push_unfenced(self, tmp_path):
        """A batched push left in an open round at exit is R1.1."""
        result = analyze_fixture(
            tmp_path,
            {
                "engine/bad.py": (
                    "def evict(self, lines, wires):\n"
                    "    c = self.c\n"
                    "    lines = lines[:c.drainer.data_wpq.capacity]\n"
                    "    c.drainer.start()\n"
                    "    c.drainer.push_blocks(lines, wires[:len(lines)])\n"
                )
            },
            rules=["R1"],
        )
        assert any("without the round's end()" in f.message for f in active(result))

    def test_batched_push_before_start(self, tmp_path):
        """A batched push no start() dominates is R1.2."""
        result = analyze_fixture(
            tmp_path,
            {
                "engine/bad.py": (
                    "def evict(self, entries):\n"
                    "    c = self.c\n"
                    "    room = c.drainer.posmap_wpq.capacity\n"
                    "    entries = entries[:room]\n"
                    "    c.drainer.push_posmap_entries(\n"
                    "        [e[0] for e in entries], [e[1] for e in entries]\n"
                    "    )\n"
                    "    c.drainer.start()\n"
                    "    c.drainer.end()\n"
                    "    c.drainer.flush(0)\n"
                )
            },
            rules=["R1"],
        )
        assert any("no start() dominates" in f.message for f in active(result))

    def test_batched_push_of_unbounded_list(self, tmp_path):
        """R1.3 applies the capacity-evidence test to a batched push's
        arguments, the way it does to a push loop's source."""
        result = analyze_fixture(
            tmp_path,
            {
                "engine/bad.py": (
                    "def evict(self, pending):\n"
                    "    c = self.c\n"
                    "    c.drainer.start()\n"
                    "    c.drainer.push_posmap_entries(\n"
                    "        [self.line_of(a) for a, _ in pending], pending\n"
                    "    )\n"
                    "    c.drainer.end()\n"
                    "    c.drainer.flush(0)\n"
                )
            },
            rules=["R1"],
        )
        hits = [
            f for f in active(result)
            if "batched push of 'pending'" in f.message
            and "capacity bound" in f.message
        ]
        assert hits

    def test_batched_push_of_clamped_list_is_clean(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/good.py": (
                    "def evict(self, pending):\n"
                    "    c = self.c\n"
                    "    room = c.drainer.posmap_wpq.capacity\n"
                    "    chunk = pending[:room]\n"
                    "    c.drainer.start()\n"
                    "    c.drainer.push_posmap_entries(\n"
                    "        [self.line_of(a) for a, _ in chunk], chunk\n"
                    "    )\n"
                    "    c.drainer.end()\n"
                    "    c.drainer.flush(0)\n"
                )
            },
            rules=["R1"],
        )
        assert not active(result)

    def test_crash_flush_without_inflight_check(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/bad.py": (
                    "class Policy:\n"
                    "    def remap(self, address, old_path, new_path):\n"
                    "        self._inflight = (address, old_path)\n"
                    "    def crash(self):\n"
                    "        for a, p in self.modified():\n"
                    "            self.persistent_posmap.write_entry(a, p)\n"
                )
            },
            rules=["R1"],
        )
        assert any("in-flight remap state" in f.message for f in active(result))

    def test_crash_flush_with_rollback_is_clean(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/good.py": (
                    "class Policy:\n"
                    "    def remap(self, address, old_path, new_path):\n"
                    "        self._inflight = (address, old_path)\n"
                    "    def crash(self):\n"
                    "        if self._inflight is not None:\n"
                    "            address, old_path = self._inflight\n"
                    "            self.posmap.set(address, old_path)\n"
                    "            self._inflight = None\n"
                    "        for a, p in self.modified():\n"
                    "            self.persistent_posmap.write_entry(a, p)\n"
                )
            },
            rules=["R1"],
        )
        assert not active(result)


# ---------------------------------------------------------------------------
# R2 crash-point-coverage
# ---------------------------------------------------------------------------


class TestCrashPointCoverage:
    def test_declared_and_injected_drift(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/labels.py": (
                    "MY_CRASH_POINTS = ('a:one', 'a:two')\n"
                    "def go(self):\n"
                    "    self._checkpoint('a:one')\n"
                    "    self._checkpoint('a:three')\n"
                )
            },
            rules=["R2"],
        )
        messages = " | ".join(f.message for f in active(result))
        assert "'a:two'" in messages and "declared but no _checkpoint" in messages
        assert "'a:three'" in messages and "declared in no" in messages

    def test_round_without_checkpoint(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/bad.py": (
                    "def write(self):\n"
                    "    c = self.c\n"
                    "    c.drainer.start()\n"
                    "    c.drainer.push_blocks([1], [b'x'])\n"
                    "    c.drainer.end()\n"
                    "    c.drainer.flush(0)\n"
                )
            },
            rules=["R2"],
        )
        assert any("announces no checkpoint" in f.message for f in active(result))

    def test_integrity_declared_point_without_checkpoint(self, tmp_path):
        """An INTEGRITY_CRASH_POINTS label the domain never fires via
        _checkpoint is a cell the matrix silently never tests — R2 flags
        it just like a policy's declaration drift."""
        result = analyze_fixture(
            tmp_path,
            {
                "integrity/domain.py": (
                    "INTEGRITY_CRASH_POINTS = (\n"
                    "    'integrity:before-propagate',\n"
                    "    'integrity:after-persist',\n"
                    ")\n"
                    "class IntegrityDomain:\n"
                    "    def on_persist_commit(self):\n"
                    "        self.c._checkpoint('integrity:before-propagate')\n"
                    "        self._persist_root()\n"
                )
            },
            rules=["R2"],
        )
        messages = " | ".join(f.message for f in active(result))
        assert "'integrity:after-persist'" in messages
        assert "declared but no _checkpoint" in messages

    def test_integrity_round_in_scope_for_round_coverage(self, tmp_path):
        """integrity/ is a ROUND_SCOPE_DIR: an atomic WPQ round opened by
        the domain must announce an injectable label while open."""
        result = analyze_fixture(
            tmp_path,
            {
                "integrity/bad.py": (
                    "def commit(self):\n"
                    "    c = self.c\n"
                    "    c.drainer.start()\n"
                    "    c.drainer.push_blocks([1], [b'x'])\n"
                    "    c.drainer.end()\n"
                    "    c.drainer.flush(0)\n"
                )
            },
            rules=["R2"],
        )
        assert any("announces no checkpoint" in f.message for f in active(result))

    def test_class_attr_label_is_not_an_injection_site(self, tmp_path):
        """Only a literal ``_checkpoint`` call fires a label; a constant
        parked in a class attribute leaves the declared label uncovered."""
        result = analyze_fixture(
            tmp_path,
            {
                "engine/labels.py": (
                    "X_CRASH_POINTS = ('b:after-remap',)\n"
                    "class P:\n"
                    "    CHECKPOINT_LABEL = 'b:after-remap'\n"
                )
            },
            rules=["R2"],
        )
        assert any("b:after-remap" in f.message for f in active(result))


# ---------------------------------------------------------------------------
# R3 oblivious
# ---------------------------------------------------------------------------


class TestOblivious:
    def test_secret_address_reaches_memory_op(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/leak.py": (
                    "def _fetch_blocks(self, address, old_path):\n"
                    "    return self.store.load_line(address)\n"
                )
            },
            rules=["R3"],
        )
        assert any("reaches memory operation" in f.message for f in active(result))

    def test_posmap_lookup_declassifies(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/ok.py": (
                    "def _fetch_blocks(self, address, old_path):\n"
                    "    path = self.posmap.get(address)\n"
                    "    return self.store.read_path(path)\n"
                )
            },
            rules=["R3"],
        )
        assert not active(result)

    def test_secret_branch_guarding_memory(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/leak.py": (
                    "def access(self, address, is_write=False):\n"
                    "    if address > 10:\n"
                    "        self.memory.issue(0, 1)\n"
                )
            },
            rules=["R3"],
        )
        assert any("secret-dependent branch" in f.message for f in active(result))

    def test_secret_directive_seeds_taint(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/leak.py": (
                    "def helper(self, key):  # analyze: secret(key)\n"
                    "    return self.store.load_line(key)\n"
                )
            },
            rules=["R3"],
        )
        assert any("reaches memory operation" in f.message for f in active(result))


# ---------------------------------------------------------------------------
# R4 determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_and_global_random(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/rand.py": (
                    "import random\n"
                    "import time\n"
                    "def jitter():\n"
                    "    t = time.time()\n"
                    "    return t + random.randint(0, 4)\n"
                )
            },
            rules=["R4"],
        )
        messages = [f.message for f in active(result)]
        assert any("wall-clock" in m for m in messages)
        assert any("global random state" in m for m in messages)

    def test_seeded_random_instance_is_clean(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/ok.py": (
                    "import random\n"
                    "def make_rng(seed):\n"
                    "    return random.Random(seed)\n"
                )
            },
            rules=["R4"],
        )
        assert not active(result)

    def test_set_iteration(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/order.py": (
                    "def visit(a, b):\n"
                    "    candidates = {a, b}\n"
                    "    out = []\n"
                    "    for item in candidates:\n"
                    "        out.append(item)\n"
                    "    return out\n"
                )
            },
            rules=["R4"],
        )
        assert any("set order varies" in f.message for f in active(result))

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/ok.py": (
                    "def visit(a, b):\n"
                    "    out = []\n"
                    "    for item in sorted({a, b}):\n"
                    "        out.append(item)\n"
                    "    return out\n"
                )
            },
            rules=["R4"],
        )
        assert not active(result)

    def test_out_of_scope_dirs_exempt(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "exec/timing.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                )
            },
            rules=["R4"],
        )
        assert not active(result)


# ---------------------------------------------------------------------------
# R5 falsy-zero
# ---------------------------------------------------------------------------


class TestFalsyZero:
    def test_truthiness_on_counter(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "mem/bad.py": (
                    "def apply(entry):\n"
                    "    if not entry.complete_cycle:\n"
                    "        return None\n"
                    "    if entry.version:\n"
                    "        return entry\n"
                )
            },
            rules=["R5"],
        )
        found = active(result)
        assert len(found) == 2
        assert all("is None" in f.message for f in found)

    def test_is_none_comparison_is_clean(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "mem/good.py": (
                    "def apply(entry):\n"
                    "    if entry.complete_cycle is None:\n"
                    "        return None\n"
                    "    return entry\n"
                )
            },
            rules=["R5"],
        )
        assert not active(result)


# ---------------------------------------------------------------------------
# R6 access-entrypoint
# ---------------------------------------------------------------------------


class TestAccessEntrypoint:
    def test_second_pipeline_flagged(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/base.py": (
                    "class AccessEngine:\n"
                    "    def access(self, address):\n"
                    "        self._checkpoint('phase:fetch')\n"
                ),
                "engine/rogue.py": (
                    "class Rogue:\n"
                    "    def access(self, address):\n"
                    "        self._checkpoint('phase:fetch')\n"
                ),
            },
            rules=["R6"],
        )
        found = active(result)
        assert len(found) == 1
        assert found[0].symbol == "Rogue.access"
        assert "second phase-pipeline" in found[0].message

    def test_pure_delegator_is_clean(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/base.py": (
                    "class AccessEngine:\n"
                    "    def access(self, address):\n"
                    "        self._checkpoint('phase:fetch')\n"
                ),
                "engine/front.py": (
                    "class Front:\n"
                    "    def access(self, address):\n"
                    "        return self.controller.access(address)\n"
                ),
            },
            rules=["R6"],
        )
        assert not active(result)

    def test_non_delegating_access_flagged(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/base.py": (
                    "class AccessEngine:\n"
                    "    def access(self, address):\n"
                    "        self._checkpoint('phase:fetch')\n"
                ),
                "engine/loner.py": (
                    "class Loner:\n"
                    "    def access(self, address):\n"
                    "        return compute(address)\n"
                ),
            },
            rules=["R6"],
        )
        assert any("never calls a delegate" in f.message for f in active(result))


# ---------------------------------------------------------------------------
# Suppressions and baseline
# ---------------------------------------------------------------------------


class TestSuppressionAndBaseline:
    BAD = (
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
    )

    def test_inline_suppression(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/t.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()  # analyze: ignore[determinism] host-side only\n"
                )
            },
            rules=["R4"],
        )
        assert not active(result)
        assert any(f.suppressed for f in result.findings)

    def test_def_line_suppression_covers_body(self, tmp_path):
        result = analyze_fixture(
            tmp_path,
            {
                "engine/t.py": (
                    "import time\n"
                    "def stamp():  # analyze: ignore[R4]\n"
                    "    a = time.time()\n"
                    "    return a + time.time()\n"
                )
            },
            rules=["R4"],
        )
        assert not active(result)
        assert sum(1 for f in result.findings if f.suppressed) == 2

    def test_baseline_roundtrip_and_staleness(self, tmp_path):
        target = tmp_path / "engine" / "t.py"
        target.parent.mkdir(parents=True)
        target.write_text(self.BAD)
        first = run_analysis([str(tmp_path)], rules=[rule_by_name("R4")])
        assert active(first)

        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path, first.findings)
        baseline = Baseline.load(baseline_path)

        second = run_analysis(
            [str(tmp_path)], rules=[rule_by_name("R4")], baseline=baseline
        )
        assert second.ok
        assert all(f.baselined for f in second.findings)

        # Fix the file: the baseline entry must now read as stale.
        target.write_text("def stamp():\n    return 0\n")
        third = run_analysis(
            [str(tmp_path)], rules=[rule_by_name("R4")], baseline=baseline
        )
        assert not third.findings
        assert third.stale_baseline and not third.ok


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.analyze", *args],
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestCLI:
    def test_list_rules(self, tmp_path):
        proc = run_cli(["--list-rules"], tmp_path)
        assert proc.returncode == 0
        for rule in ALL_RULES:
            assert rule.rule_id in proc.stdout

    def test_exit_codes_and_json(self, tmp_path):
        bad = tmp_path / "engine" / "t.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\ndef s():\n    return time.time()\n")
        proc = run_cli(
            [".", "--rules", "determinism", "--format", "json",
             "--baseline", "none"],
            tmp_path,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["counts"]["active"] == 1
        assert payload["findings"][0]["rule_id"] == "R4"

        bad.write_text("def s():\n    return 0\n")
        proc = run_cli(
            [".", "--rules", "determinism", "--baseline", "none"],
            tmp_path,
        )
        assert proc.returncode == 0

    def test_output_file_and_unknown_rule(self, tmp_path):
        (tmp_path / "engine").mkdir()
        (tmp_path / "engine" / "t.py").write_text("x = 1\n")
        proc = run_cli(
            [".", "--output", "report.json", "--baseline", "none"],
            tmp_path,
        )
        assert proc.returncode == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["tool"] == "repro.analyze"

        proc = run_cli([".", "--rules", "nope"], tmp_path)
        assert proc.returncode == 2

    def test_repo_is_clean_under_all_rules(self):
        """The committed tree passes the full analyzer with its baseline."""
        proc = run_cli(["src"], REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# Mutation tests: the PR 5 bugs, re-created and caught statically
# ---------------------------------------------------------------------------


def _strip_statement(source, predicate):
    """Remove the first statement matching ``predicate`` from ``source``."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if predicate(node):
            lines = source.splitlines(keepends=True)
            del lines[node.lineno - 1 : node.end_lineno]
            return "".join(lines)
    raise AssertionError("mutation anchor not found — source has drifted")


class TestMutations:
    def test_deleting_eadr_rollback_trips_r1(self, tmp_path):
        """The PR 5 eADR bug: crash-flush persisting an in-flight remap."""
        source = (SRC / "repro" / "engine" / "eadr.py").read_text()

        def is_rollback(node):
            return (
                isinstance(node, ast.If)
                and isinstance(node.test, ast.Compare)
                and "_inflight" in ast.dump(node.test)
            )

        mutated = _strip_statement(source, is_rollback)
        target = tmp_path / "engine" / "eadr.py"
        target.parent.mkdir(parents=True)
        target.write_text(mutated)

        result = run_analysis([str(tmp_path)], rules=[rule_by_name("R1")])
        hits = [f for f in active(result) if "in-flight remap state" in f.message]
        assert hits, "R1.4 must fire once the rollback is deleted"
        assert any("_inflight" in f.message for f in hits)

        # Control: the unmutated file passes.
        target.write_text(source)
        clean = run_analysis([str(tmp_path)], rules=[rule_by_name("R1")])
        assert not active(clean)

    def test_deleting_naive_ps_capacity_clamp_trips_r1(self, tmp_path):
        """The PR 5 Naive-PS bug: padding entries pushed past WPQ capacity."""
        source = (SRC / "repro" / "engine" / "ps.py").read_text()
        clamp = (
            "            room = max(0, c.drainer.posmap_wpq.capacity - len(round_entries))\n"
            "            round_entries.extend(padding[:room])\n"
            "            padding = padding[room:]\n"
        )
        assert clamp in source, "capacity clamp not found — evict() has drifted"
        mutated = source.replace(
            clamp,
            "            round_entries.extend(padding)\n"
            "            padding = []\n",
        )
        target = tmp_path / "engine" / "ps.py"
        target.parent.mkdir(parents=True)
        target.write_text(mutated)

        result = run_analysis([str(tmp_path)], rules=[rule_by_name("R1")])
        hits = [
            f
            for f in active(result)
            if "round_entries" in f.message and "capacity bound" in f.message
        ]
        assert hits, "R1.3 must fire once the capacity clamp is deleted"

        # Control: the unmutated file passes.
        target.write_text(source)
        clean = run_analysis([str(tmp_path)], rules=[rule_by_name("R1")])
        assert not active(clean)


# ---------------------------------------------------------------------------
# Registry sanity
# ---------------------------------------------------------------------------


def test_rule_registry():
    assert [r.rule_id for r in ALL_RULES] == ["R1", "R2", "R3", "R4", "R5", "R6"]
    assert rule_by_name("persist-ordering") is rule_by_name("R1")
    assert len(select_rules([])) == len(ALL_RULES)
    with pytest.raises(KeyError):
        rule_by_name("R99")
