"""Tests for the repro.exec parallel sweep orchestrator."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.config import small_config
from repro.exec.cache import ResultCache, code_version, point_key
from repro.exec.faults import FaultPolicy
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
        references=REFS, warmup_references=WARMUP, trace_cache={},
    )


class TestResultSerialization:
    def test_roundtrip(self):
        result = RunResult("ps", "429.mcf", 10, 20, 3, 4, 5, {"stash_hits": 2})
        assert RunResult.from_dict(result.to_dict()) == result

    def test_roundtrip_through_json(self):
        result = RunResult("ps", "429.mcf", 10, 20, 3, 4, 5, {"x": 1.5})
        payload = json.loads(json.dumps(result.to_dict()))
        assert RunResult.from_dict(payload) == result


class TestCache:
    def test_key_is_stable_and_sensitive(self):
        base = point_key("ps", "429.mcf", CONFIG, 60, 10, 7)
        assert base == point_key("ps", "429.mcf", CONFIG, 60, 10, 7)
        assert base != point_key("ps", "429.mcf", CONFIG, 61, 10, 7)
        assert base != point_key("ps", "403.gcc", CONFIG, 60, 10, 7)
        assert base != point_key("ps", "429.mcf", CONFIG, 60, 10, 8)
        other = small_config(height=7)
        assert base != point_key("ps", "429.mcf", other, 60, 10, 7)

    def test_code_version_memoized(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = RunResult("ps", "429.mcf", 1, 2, 3, 4, 5)
        key = point_key("ps", "429.mcf", CONFIG, 60, 10, 7)
        assert cache.get(key) is None
        cache.put(key, result)
        assert key in cache
        assert cache.get(key) == result
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("ps", "429.mcf", CONFIG, 60, 10, 7)
        cache.put(key, RunResult("ps", "429.mcf", 1, 2, 3, 4, 5))
        cache._path(key).write_text("{not json")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("ps", "429.mcf", CONFIG, 60, 10, 7)
        cache.put(key, RunResult("ps", "429.mcf", 1, 2, 3, 4, 5))
        assert cache.clear() == 1
        assert len(cache) == 0


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


class TestCaching:
    def test_second_run_is_90pct_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "journal.jsonl"
        with RunJournal(journal_path) as journal:
            first = run_sweep(_points(), jobs=2, cache=cache, journal=journal)
        with RunJournal(journal_path) as journal:
            second = run_sweep(_points(), jobs=2, cache=cache, journal=journal)
        assert collect_results(second) == collect_results(first)
        assert all(o.cached for o in second)
        # The journal of the second run reports >= 90% cache hits.
        events = last_run_events(read_events(journal_path))
        summary = summarize(events)
        assert summary["cache_hit_rate"] >= 0.9
        assert summary["cached"] == len(_points())

    def test_cached_results_identical_to_fresh(self, tmp_path):
        cache = ResultCache(tmp_path)
        fresh = collect_results(run_sweep(_points(), jobs=2, cache=cache))
        cached = collect_results(run_sweep(_points(), jobs=2, cache=cache))
        assert cached == fresh == _serial_results()


def _boom_executor(point):
    if point.workload == "429.mcf" and point.variant == "baseline":
        raise RuntimeError("injected fault")
    return execute_point(point)


def _crash_executor(point):
    if point.workload == "429.mcf" and point.variant == "baseline":
        os._exit(3)
    return execute_point(point)


def _sleepy_executor(point):
    if point.workload == "429.mcf" and point.variant == "baseline":
        time.sleep(60)
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
        events = read_events(journal_path)
        assert any(e["event"] == "point_failed" for e in events)
        assert any(e["event"] == "sweep_finished" for e in events)

    def test_raising_point_serial_path(self):
        outcomes = run_sweep(_points(), jobs=1, executor=_boom_executor)
        self._check_degraded(outcomes, "exception")

    def test_dead_worker_is_a_crash_record(self):
        outcomes = run_sweep(_points(), jobs=2, executor=_crash_executor)
        self._check_degraded(outcomes, "crash")
        assert "exitcode" in outcomes[3].error.message

    def test_hung_worker_times_out(self):
        outcomes = run_sweep(
            _points(), jobs=4, executor=_sleepy_executor,
            faults=FaultPolicy(timeout_s=2.0),
        )
        self._check_degraded(outcomes, "timeout")

    def test_retry_recovers_flaky_point(self, tmp_path):
        marker = tmp_path / "flaked-once"

        def flaky(point):
            if point.workload == "429.mcf" and point.variant == "baseline":
                if not marker.exists():
                    marker.write_text("x")
                    raise RuntimeError("transient")
            return execute_point(point)

        outcomes = run_sweep(
            _points(), jobs=2, executor=flaky,
            faults=FaultPolicy(retries=1),
        )
        assert all(o.ok for o in outcomes)
        assert collect_results(outcomes) == _serial_results()

    def test_collect_results_strict_raises(self):
        outcomes = run_sweep(_points()[:2], jobs=1, executor=_boom_executor)
        # No failing point in this slice — strict passes.
        assert len(collect_results(outcomes, strict=True)) == 2
        failing = run_sweep(_points(), jobs=1, executor=_boom_executor)
        with pytest.raises(RuntimeError, match="failed points"):
            collect_results(failing, strict=True)

    def test_fault_policy_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            FaultPolicy(retries=-1)
        assert FaultPolicy(retries=2).max_attempts == 3


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
        assert summary["cache_hit_rate"] == 0.0
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
        assert "cache hit rate: 0%" in out

    def test_status_cli_missing_journal(self, tmp_path, capsys):
        from repro.exec.__main__ import main

        assert main(["status", "--journal", str(tmp_path / "nope")]) == 1

    def test_cache_cli(self, tmp_path, capsys):
        from repro.exec.__main__ import main

        cache = ResultCache(tmp_path)
        cache.put(
            point_key("ps", "429.mcf", CONFIG, 60, 10, 7),
            RunResult("ps", "429.mcf", 1, 2, 3, 4, 5),
        )
        assert main(["cache", "--dir", str(tmp_path)]) == 0
        assert "entries: 1" in capsys.readouterr().out
        assert main(["cache", "--dir", str(tmp_path), "--clear"]) == 0
        assert len(cache) == 0


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
        monkeypatch.setattr(
            harness, "_exec_defaults",
            {"jobs": 1, "use_cache": None, "journal": None},
        )
        # Fresh trace cache: the serial path reuses any cached trace that
        # is at least as long as requested, which would make it replay
        # more references than the exec path's exact-length traces.
        monkeypatch.setattr(harness, "_trace_cache", {})
        monkeypatch.setattr(harness, "_result_cache", {})
        serial = harness.sweep(SYSTEMS, WORKLOADS, config=CONFIG,
                               references=REFS, warmup=WARMUP, jobs=1,
                               use_cache=False)
        monkeypatch.setattr(harness, "_result_cache", {})
        parallel = harness.sweep(SYSTEMS, WORKLOADS, config=CONFIG,
                                 references=REFS, warmup=WARMUP, jobs=2)
        assert parallel == serial
        # The exec path journaled under the cache root.
        journal = tmp_path / "journal.jsonl"
        assert journal.exists()
        assert any(
            e["event"] == "sweep_finished" for e in read_events(journal)
        )
        # And cached every point: a fresh-memo rerun is all hits.
        monkeypatch.setattr(harness, "_result_cache", {})
        again = harness.sweep(SYSTEMS, WORKLOADS, config=CONFIG,
                              references=REFS, warmup=WARMUP, jobs=2)
        assert again == serial
        summary = summarize(last_run_events(read_events(journal)))
        assert summary["cache_hit_rate"] >= 0.9

    def test_set_execution_defaults_validation(self):
        from repro.bench import harness

        with pytest.raises(ValueError):
            harness.set_execution_defaults(jobs=0)
