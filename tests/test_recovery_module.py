"""Tests for the recovery orchestration module and bounce-block restore."""

import pytest

from repro.config import WPQConfig, small_config
from repro.core.recovery import crash_and_recover
from repro.core.variants import build_variant
from repro.oram.block import Block
from repro.util.rng import DeterministicRNG


class TestCrashAndRecover:
    def test_reports_wpq_flush_counts(self):
        controller = build_variant("ps", small_config(height=6, seed=1))
        controller.write(1, b"x")
        report = crash_and_recover(controller)
        assert report.recovered
        # Normal flow flushes rounds immediately, so the crash applies none.
        assert report.wpq_blocks_applied == 0

    def test_counts_open_round_flush(self):
        from repro.errors import SimulatedCrash

        controller = build_variant("ps", small_config(height=6, seed=1))
        controller.write(1, b"x")

        def hook(label):
            if label == "step5:after-end":
                raise SimulatedCrash(label)

        controller.crash_hook = hook
        with pytest.raises(SimulatedCrash):
            controller.write(2, b"y")
        controller.crash_hook = None
        report = crash_and_recover(controller)
        assert report.recovered
        # The committed-but-unflushed round is applied by ADR at crash time.
        assert report.wpq_blocks_applied > 0

    def test_posmap_rebuild_counted(self):
        controller = build_variant("ps", small_config(height=6, seed=1))
        rng = DeterministicRNG(2)
        for i in range(30):
            controller.write(rng.randrange(20), bytes([i]))
        report = crash_and_recover(controller)
        assert report.posmap_entries_rebuilt > 0

    def test_works_for_plain(self):
        controller = build_variant("plain", small_config(height=6))
        controller.write(1, b"x")
        report = crash_and_recover(controller)
        assert report.recovered
        # Plain has no WPQ at all — reported as "no drainer", not as a
        # drain that happened to apply zero blocks.
        assert not report.has_drainer
        assert report.wpq_blocks_applied is None
        assert report.wpq_entries_applied is None

    def test_drainer_variant_reports_has_drainer(self):
        controller = build_variant("ps", small_config(height=6, seed=1))
        controller.write(1, b"x")
        report = crash_and_recover(controller)
        assert report.has_drainer
        assert report.wpq_blocks_applied == 0  # flushed in normal flow

    def test_failed_recovery_rebuilds_nothing(self):
        controller = build_variant("baseline", small_config(height=6, seed=1))
        for i in range(10):
            controller.write(i, bytes([i]))
        report = crash_and_recover(controller)
        assert not report.recovered
        # A failed recovery must not claim it rebuilt PosMap entries,
        # whatever state the volatile mirror was left in.
        assert report.posmap_entries_rebuilt == 0


class TestBounceRestore:
    def test_stale_bounce_copy_ignored(self):
        """A leftover bounce line must not resurrect an old mapping."""
        controller = build_variant("ps", small_config(height=6, seed=3))
        controller.write(5, b"current")
        # Forge a stale bounce copy claiming an unrelated path.
        stale_path = (controller.posmap.get(5) + 1) % controller.posmap.num_leaves
        stale = Block(address=5, path_id=stale_path, data=b"STALE" + bytes(59),
                      version=1)
        controller.memory.store_line(
            controller._bounce_lines[0], controller.codec.encode(stale)
        )
        controller.crash()
        assert controller.recover()
        assert controller.stats.get("bounce_blocks_restored") == 0
        assert controller.read(5).data.rstrip(b"\x00") == b"current"

    def test_valid_bounce_copy_restored(self):
        """A bounce copy that is the only durable copy is reinstated."""
        controller = build_variant("ps", small_config(height=6, seed=3))
        controller.write(5, b"value")
        label = controller.posmap.get(5)
        # Simulate the mid-chain loss: erase every tree copy of block 5,
        # leave only a bounce copy with the current label.
        region = controller.tree.region
        for bucket in range(region.num_buckets):
            for slot in range(controller.tree.z):
                block = controller.tree.load_slot(bucket, slot)
                if block.address == 5:
                    controller.tree.store_slot(
                        bucket, slot, Block.dummy(64)
                    )
        survivor = Block(address=5, path_id=label, data=b"value" + bytes(59),
                         version=controller._version)
        controller.memory.store_line(
            controller._bounce_lines[0], controller.codec.encode(survivor)
        )
        controller.crash()
        assert controller.recover()
        assert controller.stats.get("bounce_blocks_restored") == 1
        assert controller.read(5).data.rstrip(b"\x00") == b"value"

    def test_bounce_used_under_tiny_wpq_workload(self):
        """Long random runs with a 4-entry WPQ stay functionally correct
        whether or not cycles forced bounce writes."""
        config = small_config(
            height=6, seed=9, wpq=WPQConfig(data_entries=4, posmap_entries=4)
        )
        controller = build_variant("ps", config)
        rng = DeterministicRNG(5)
        model = {}
        for i in range(200):
            addr = rng.randrange(40)
            value = bytes([i % 256, 3])
            controller.write(addr, value)
            model[addr] = value + bytes(62)
        controller.crash()
        assert controller.recover()
        for addr, want in model.items():
            assert controller.read(addr).data == want
