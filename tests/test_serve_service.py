"""End-to-end tests for the sharded service (repro.serve.frontend/worker)."""

import io
import json

import pytest

from repro.crashsim.injector import CrashInjector
from repro.errors import ServiceCrashedError, ServiceStoppedError, SimulatedCrash
from repro.serve.batcher import OP_DELETE, OP_GET, OP_PUT, Request
from repro.serve.__main__ import main as serve_main
from repro.serve.frontend import SERVICE_QUIESCENT, ShardedKVService
from repro.serve.worker import ShardWorker
from repro.util.rng import DeterministicRNG


def _service(shards=2, **kwargs):
    kwargs.setdefault("height", 6)
    return ShardedKVService(shards=shards, **kwargs).start()


class TestInlineService:
    def test_put_get_delete_roundtrip(self):
        service = _service()
        service.put("alpha", b"first")
        service.put("beta", b"second" * 15)  # multi-chunk value
        assert service.get("alpha") == b"first"
        assert service.get("beta") == b"second" * 15
        service.delete("alpha")
        with pytest.raises(KeyError):
            service.get("alpha")

    def test_delete_is_idempotent(self):
        service = _service()
        service.delete("never-existed")  # no KeyError at the service level

    def test_execute_preserves_input_order_and_ryw(self):
        service = _service()
        requests = service.execute([
            (OP_PUT, "k", b"v1"),
            (OP_GET, "k"),
            (OP_PUT, "k", b"v2"),
            (OP_GET, "k"),
        ])
        assert [r.error for r in requests] == [None] * 4
        assert requests[1].result == b"v1"
        assert requests[3].result == b"v2"
        assert service.get("k") == b"v2"

    def test_keys_spread_over_shards(self):
        service = _service(shards=4)
        for i in range(40):
            service.put(f"key-{i}", bytes([i]))
        busy = [w.stats["requests"] for w in service.workers]
        assert all(count > 0 for count in busy)

    def test_requires_start(self):
        service = ShardedKVService(shards=1, height=6)
        with pytest.raises(ServiceStoppedError):
            service.put("k", b"v")

    def test_roundtrip_and_context_manager(self):
        with ShardedKVService(shards=2, height=6) as service:
            for i in range(10):
                service.put(f"k{i}", bytes([i]) * 8)
            for i in range(10):
                assert service.get(f"k{i}") == bytes([i]) * 8
        assert service.status()["started"] is False

    def test_stop_then_request_refused(self):
        service = ShardedKVService(shards=1, height=6).start()
        service.put("x", b"1")
        service.stop()
        with pytest.raises(ServiceStoppedError):
            service.get("x")

    def test_thread_mode_rejected(self):
        with pytest.raises(ValueError, match="thread mode was removed"):
            ShardedKVService(shards=1, height=6, mode="thread")

    def test_status_totals(self):
        service = _service()
        service.put("a", b"1")
        service.get("a")
        status = service.status()
        assert status["shards"] == 2
        assert status["totals"]["requests"] == 2
        assert len(status["per_shard"]) == 2
        assert status["crashed"] is False


class TestWindowedShards:
    """Shards behind a shared per-shard WindowScheduler (window > 1)."""

    @staticmethod
    def _drive(window):
        service = _service(shards=2, window=window, seed=11)
        outcomes = []
        for round_no in range(3):
            requests = service.execute(
                [(OP_PUT, f"k{i}", bytes([i, round_no]) * 30) for i in range(6)]
                + [(OP_GET, f"k{i}") for i in range(6)]
                + [(OP_DELETE, f"k{round_no}")]
            )
            outcomes.append([
                (r.result, type(r.error).__name__ if r.error else None)
                for r in requests
            ])
        return service, outcomes

    def test_windowed_service_matches_serial_logically(self):
        serial_service, serial = self._drive(1)
        windowed_service, windowed = self._drive(4)
        assert windowed == serial
        for key in [f"k{i}" for i in range(6)]:
            try:
                left = serial_service.get(key)
            except KeyError:
                left = None
            try:
                right = windowed_service.get(key)
            except KeyError:
                right = None
            assert left == right, f"windowed shard diverged on {key}"

    def test_windowed_workers_actually_overlap(self):
        service, _ = self._drive(4)
        overlapped = sum(
            w.controller.stats.snapshot().get("sched_overlapped", 0)
            for w in service.workers
        )
        assert overlapped > 0

    def test_batch_finish_covers_the_window_drain(self):
        service, _ = self._drive(4)
        requests = service.execute([
            (OP_PUT, f"fresh-{i}", b"x" * 40) for i in range(6)
        ])
        for request in requests:
            worker = service.workers[request.shard]
            # After the batch-boundary drain nothing is still in flight:
            # the acknowledged finish cycle is the shard's settled clock.
            assert request.finish_cycle <= worker.controller.now
            assert not worker.controller._inflight

    def test_close_drains_the_window(self):
        service, _ = self._drive(4)
        for worker in service.workers:
            worker.close()
            assert not worker.controller._inflight
            assert worker.store.closed


class TestCrashRecovery:
    def test_whole_service_power_cycle_keeps_acknowledged_data(self):
        service = _service(shards=2)
        service.put("a", b"alpha")
        service.put("b", b"beta")
        service.crash()
        assert service.status()["crashed"] is True
        with pytest.raises(ServiceStoppedError):
            service.get("a")
        assert service.recover() is True
        assert service.get("a") == b"alpha"
        assert service.get("b") == b"beta"

    def test_injected_mid_batch_crash_never_acknowledges(self):
        service = _service(shards=2, seed=5)
        service.put("warm", b"up")
        target = service.workers[0]
        injector = CrashInjector(target.controller, DeterministicRNG(3))
        injector.arm(target.crash_points()[0], skip_hits=0)
        requests = service.route([(OP_PUT, f"key-{i}", b"x") for i in range(8)])
        with pytest.raises(SimulatedCrash):
            service.run_batches(requests)
        injector.disarm()
        shard0 = [r for r in requests if r.shard == 0]
        assert shard0, "seed must route some keys to the injected shard"
        assert all(isinstance(r.error, ServiceCrashedError)
                   for r in shard0 if r.done)
        assert service.recover() is True
        assert service.get("warm") == b"up"

    def test_bare_recover_matches_power_cycle_after_mid_batch_crash(self):
        """Seeded regression for the recovery-path split: a bare
        ``worker.recover()`` after a mid-batch SimulatedCrash used to run
        the policy recovery *without* the controller power cut, so
        committed-but-unflushed WPQ rounds were discarded — acknowledged
        data silently lost.  Both paths must now produce identical
        durable state (recover() routes through power_cycle())."""

        def crashed_worker():
            wb = ShardWorker(0, variant="ps", height=6, directory_buckets=8)
            for i in range(6):
                wb.store.put(f"k{i}", bytes([i]) * 150)
            injector = CrashInjector(wb.controller, DeterministicRNG(99))
            injector.arm("phase:fetch", skip_hits=3)
            batch = [
                Request(OP_PUT, "k2", b"fresh-2" * 20),
                Request(OP_PUT, "k7", b"fresh-7" * 20),
                Request(OP_DELETE, "k1"),
                Request(OP_PUT, "k3", b"fresh-3" * 20),
            ]
            with pytest.raises(SimulatedCrash):
                wb.execute_batch(batch)
            injector.disarm()
            return wb

        bare = crashed_worker()
        cycled = crashed_worker()
        assert bare.recover() is True
        cycled.power_fail()
        assert cycled.recover() is True
        # Identical durable state on both recovery paths: every key reads
        # back the same (or is absent on both), and the allocators agree.
        for i in list(range(6)) + [7]:
            key = f"k{i}"
            try:
                left = bare.store.get(key)
            except KeyError:
                left = None
            try:
                right = cycled.store.get(key)
            except KeyError:
                right = None
            assert left == right, f"recovery paths diverged on {key}"
        assert bare.store.free_blocks == cycled.store.free_blocks
        # Seed puts the crashed batch never touched stay durable.
        for i in (0, 4, 5):
            assert bare.store.get(f"k{i}") == bytes([i]) * 150

    def test_power_cycle_reopens_closed_store(self):
        """Regression: power_cycle() used to ``settle()`` the store, which
        raises StoreClosedError on a closed one — recovery must instead
        reopen it (rebuild the allocator and clear the closed flag)."""
        wb = ShardWorker(0, variant="ps", height=6, directory_buckets=8)
        wb.store.put("k", b"v" * 20)
        wb.close()
        assert wb.store.closed
        report = wb.power_cycle()
        assert report.recovered is True
        assert not wb.store.closed
        assert wb.store.get("k") == b"v" * 20

    def test_volatile_variant_reports_failed_recovery(self):
        service = _service(shards=2, variant="baseline")
        service.put("a", b"1")
        service.crash()
        assert service.recover() is False
        assert service.status()["crashed"] is True

    def test_crash_points_cover_every_shard(self):
        service = _service(shards=2)
        points = service.crash_points()
        assert points[0] == SERVICE_QUIESCENT
        assert any(p.startswith("shard0:") for p in points)
        assert any(p.startswith("shard1:") for p in points)
        per_shard = len(service.workers[0].crash_points())
        assert len(points) == 1 + 2 * per_shard


class TestPadding:
    def test_pad_batches_masks_coalescing_count(self):
        service = _service(shards=1, pad_batches=True)
        requests = service.execute([
            (OP_PUT, "k", b"1"), (OP_PUT, "k", b"2"),
            (OP_GET, "k"), (OP_GET, "k"),
        ])
        assert all(r.error is None for r in requests)
        worker = service.workers[0]
        # Coalescing saved store ops; padding re-spent them as dummies.
        assert worker.stats["coalesced_reads"] + worker.stats["coalesced_writes"] > 0
        assert worker.stats["pad_accesses"] > 0


class TestServeCLI:
    def test_stdin_session(self, monkeypatch, capsys):
        script = "PUT a hello\nGET a\nDEL a\nGET a\nSTATUS\nQUIT\nGET never-read\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert serve_main(["serve", "--shards", "2", "--height", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("serving 2 x ps shard(s)")
        assert lines[1:5] == ["OK", "hello", "OK", "ERR missing key 'a'"]
        status = json.loads("\n".join(lines[5:]))
        assert status["totals"]["requests"] == 4
        assert status["shards"] == 2
