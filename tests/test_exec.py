"""Tests for the repro.exec parallel sweep orchestrator."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.config import small_config
from repro.exec.journal import (
    RunJournal,
    format_status,
    last_run_events,
    read_events,
    summarize,
)
from repro.exec.pool import (
    SweepPoint,
    collect_results,
    execute_point,
    run_sweep,
)
from repro.sim.results import RunResult
from repro.sim.runner import run_variants

CONFIG = small_config(height=6)
SYSTEMS = ("plain", "baseline")
WORKLOADS = ("403.gcc", "429.mcf")
REFS, WARMUP = 60, 10


def _points():
    # Same (workload-outer, variant-inner) order as run_variants.
    return [
        SweepPoint(v, w, CONFIG, REFS, WARMUP)
        for w in WORKLOADS
        for v in SYSTEMS
    ]


def _serial_results():
    return run_variants(
        SYSTEMS, CONFIG, WORKLOADS,
        references=REFS, warmup_references=WARMUP,
    )


class TestResultSerialization:
    def test_roundtrip_through_json(self):
        result = RunResult("ps", "429.mcf", 10, 20, 3, 4, 5, {"x": 1.5})
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload == result.to_dict()


class TestDeterminism:
    def test_parallel_matches_serial_bit_identical(self):
        """The defining property: --jobs 4 == serial, field for field."""
        serial = _serial_results()
        outcomes = run_sweep(_points(), jobs=4)
        assert all(o.ok for o in outcomes)
        parallel = collect_results(outcomes)
        assert parallel == serial

    def test_in_process_path_matches_serial(self):
        serial = _serial_results()
        assert collect_results(run_sweep(_points(), jobs=1)) == serial


def _boom_executor(point):
    if point.workload == "429.mcf" and point.variant == "baseline":
        raise RuntimeError("injected fault")
    return execute_point(point)


def _crash_executor(point):
    if point.workload == "429.mcf" and point.variant == "baseline":
        os._exit(3)
    return execute_point(point)


class TestFaultTolerance:
    def _check_degraded(self, outcomes, kind):
        failed = [o for o in outcomes if o.error is not None]
        ok = [o for o in outcomes if o.ok]
        assert len(failed) == 1
        assert failed[0].point.label == "baseline/429.mcf"
        assert failed[0].error.kind == kind
        # The rest of the sweep completed with correct results.
        assert len(ok) == len(_points()) - 1
        serial = {
            (r.variant, r.workload): r for r in _serial_results()
        }
        for outcome in ok:
            key = (outcome.point.variant, outcome.point.workload)
            assert outcome.result == serial[key]

    def test_raising_worker_degrades_gracefully(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        with RunJournal(journal_path) as journal:
            outcomes = run_sweep(
                _points(), jobs=2, journal=journal, executor=_boom_executor
            )
        self._check_degraded(outcomes, "exception")
        assert "injected fault" in str(outcomes[3].error)
        # The pool child's traceback names where the point failed.
        assert "in _boom_executor" in outcomes[3].error.traceback
        events = read_events(journal_path)
        assert any(e["event"] == "point_failed" for e in events)
        assert any(e["event"] == "sweep_finished" for e in events)
        # One attempt per point: the failed point is not retried.
        started = [e for e in events if e["event"] == "point_started"]
        assert len(started) == len(_points())

    def test_raising_point_serial_path(self):
        outcomes = run_sweep(_points(), jobs=1, executor=_boom_executor)
        self._check_degraded(outcomes, "exception")
        assert "in _boom_executor" in outcomes[3].error.traceback

    def test_dead_worker_is_a_crash_record(self):
        outcomes = run_sweep(_points(), jobs=2, executor=_crash_executor)
        self._check_degraded(outcomes, "crash")
        assert "exitcode" in outcomes[3].error.message

    def test_collect_results_strict_raises(self):
        outcomes = run_sweep(_points()[:2], jobs=1, executor=_boom_executor)
        # No failing point in this slice.
        assert len(collect_results(outcomes)) == 2
        failing = run_sweep(_points(), jobs=1, executor=_boom_executor)
        with pytest.raises(RuntimeError, match="failed points") as raised:
            collect_results(failing)
        # The error names the point and shows where it failed.
        assert "baseline/429.mcf: exception: RuntimeError: injected fault" \
            in str(raised.value)
        assert "in _boom_executor" in str(raised.value)


class TestJournal:
    def test_events_and_summary(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            run_sweep(_points(), jobs=2, journal=journal)
        events = read_events(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert kinds.count("point_started") == len(_points())
        assert kinds.count("point_finished") == len(_points())
        for event in events:
            assert "ts" in event and "run" in event
        summary = summarize(events)
        assert summary["finished"] == len(_points())
        assert summary["failed"] == 0
        text = format_status(summary)
        assert "finished: 4" in text

    def test_torn_lines_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"event": "sweep_started", "run": "x"}\n{"trunc')
        events = read_events(path)
        assert len(events) == 1

    def test_last_run_selection(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        for _ in range(2):
            with RunJournal(path) as journal:
                journal.emit("sweep_started", points=0, jobs=1)
                journal.emit("sweep_finished")
        events = read_events(path)
        assert len(events) == 4
        assert len(last_run_events(events)) == 2

    def test_status_cli(self, tmp_path, capsys):
        from repro.exec.__main__ import main

        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            run_sweep(_points()[:2], jobs=2, journal=journal)
        assert main(["status", "--journal", str(path)]) == 0
        out = capsys.readouterr().out
        assert "finished: 2" in out

    def test_status_cli_missing_journal(self, tmp_path, capsys):
        from repro.exec.__main__ import main

        assert main(["status", "--journal", str(tmp_path / "nope")]) == 1


_INTERRUPT_SCRIPT = """
import sys, time
from repro.config import small_config
from repro.exec.journal import RunJournal
from repro.exec.pool import SweepPoint, run_sweep

def sleepy(point):
    time.sleep(120)

config = small_config(height=6)
points = [
    SweepPoint("plain", w, config, 50, 10)
    for w in ("403.gcc", "429.mcf", "401.bzip2", "471.omnetpp")
]
journal = RunJournal(sys.argv[1])
try:
    run_sweep(points, jobs=2, journal=journal, executor=sleepy)
except KeyboardInterrupt:
    sys.exit(130)
sys.exit(0)
"""


class TestKeyboardInterrupt:
    def test_sigint_cancels_workers_and_flushes_journal(self, tmp_path):
        script = tmp_path / "interrupt_target.py"
        script.write_text(_INTERRUPT_SCRIPT)
        journal_path = tmp_path / "journal.jsonl"
        token = f"repro-exec-interrupt-{os.getpid()}"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script), str(journal_path), token],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until workers have actually started.
            deadline = time.time() + 30
            while time.time() < deadline:
                events = read_events(journal_path)
                if any(e["event"] == "point_started" for e in events):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("sweep never started points")
            proc.send_signal(signal.SIGINT)
            returncode = proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # Nonzero exit, interrupted event journaled before exit.
        assert returncode == 130
        events = read_events(journal_path)
        assert any(e["event"] == "sweep_interrupted" for e in events)
        assert not any(e["event"] == "sweep_finished" for e in events)
        # No orphaned workers: forked children share the parent cmdline.
        leftovers = subprocess.run(
            ["pgrep", "-f", token], capture_output=True, text=True
        )
        assert leftovers.stdout.strip() == ""

    def test_spawn_masks_sigint_until_worker_registered(self, monkeypatch):
        """Regression for the orphaned-worker race behind the flaky
        SIGINT test: a Ctrl-C landing inside ``Process.start()`` (or just
        after it, before the ``active`` bookkeeping insert) used to leave
        a child no ``_terminate_all`` could reap.  The spawn critical
        section must run with SIGINT masked, release the mask once the
        attempt is registered, and fork children must unmask it again.
        """
        import multiprocessing

        if not hasattr(signal, "pthread_sigmask"):
            pytest.skip("platform without pthread_sigmask")
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform without fork start method")
        ctx = multiprocessing.get_context("fork")
        masks_during_start = []
        real_start = ctx.Process.start

        def recording_start(self):
            # SIG_BLOCK with an empty set is a pure query of the mask.
            blocked = signal.pthread_sigmask(signal.SIG_BLOCK, set())
            masks_during_start.append(signal.SIGINT in blocked)
            return real_start(self)

        monkeypatch.setattr(ctx.Process, "start", recording_start)

        def executor(point):
            blocked = signal.pthread_sigmask(signal.SIG_BLOCK, set())
            return ("child-mask", signal.SIGINT in blocked)

        outcomes = run_sweep(_points()[:2], jobs=2, executor=executor)
        assert all(o.ok for o in outcomes)
        assert masks_during_start and all(masks_during_start)
        assert all(o.result == ("child-mask", False) for o in outcomes)
        # The parent main thread takes interrupts again after the sweep.
        assert signal.SIGINT not in signal.pthread_sigmask(
            signal.SIG_BLOCK, set()
        )


class TestHarnessIntegration:
    def test_sweep_jobs_path_matches_serial(self, tmp_path, monkeypatch):
        from repro.bench import harness

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(harness, "_exec_defaults",
                            {"jobs": 1, "journal": None})
        monkeypatch.setattr(harness, "_result_cache", {})
        serial = harness.sweep(SYSTEMS, WORKLOADS, config=CONFIG,
                               references=REFS, warmup=WARMUP, jobs=1)
        assert serial == _serial_results()
        monkeypatch.setattr(harness, "_result_cache", {})
        parallel = harness.sweep(SYSTEMS, WORKLOADS, config=CONFIG,
                                 references=REFS, warmup=WARMUP, jobs=2)
        assert parallel == serial
        # A direct sweep call journals nothing and writes no file.
        assert list(tmp_path.iterdir()) == []

    def test_set_execution_defaults_validation(self):
        from repro.bench import harness

        with pytest.raises(ValueError):
            harness.set_execution_defaults(jobs=0)
