"""Tests for PS-Ring: crash consistency on Ring ORAM."""

import pytest

from repro.config import small_config
from repro.errors import SimulatedCrash
from repro.ring.controller import RingORAMController
from repro.engine.ps import RING_CRASH_POINTS
from repro.core.variants import build_variant
from repro.util.rng import DeterministicRNG


@pytest.fixture
def ring_ps():
    return build_variant("ring-ps", small_config(height=6, seed=3))


class TestFunctionalParity:
    def test_roundtrip(self, ring_ps):
        ring_ps.write(3, b"ring-ps")
        assert ring_ps.read(3).data.rstrip(b"\x00") == b"ring-ps"

    def test_random_workload(self, ring_ps):
        rng = DeterministicRNG(1)
        model = {}
        for i in range(300):
            addr = rng.randrange(70)
            if rng.random() < 0.5:
                value = bytes([i % 256])
                ring_ps.write(addr, value)
                model[addr] = value + bytes(63)
            else:
                assert ring_ps.read(addr).data == model.get(addr, bytes(64))

    def test_supports_crash_consistency(self, ring_ps):
        assert ring_ps.supports_crash_consistency()


class TestInPlaceBackup:
    def test_backup_written_per_access(self, ring_ps):
        ring_ps.write(1, b"x")
        assert ring_ps.stats.get("inplace_backups") == 1

    def test_access_path_slots_rewritten(self, ring_ps):
        levels = ring_ps.store.height + 1
        before = ring_ps.traffic.total_writes
        ring_ps.write(5, b"v")
        writes = ring_ps.traffic.total_writes - before
        # slot write-back + metadata per level (EvictPath may add more).
        assert writes >= 2 * levels

    def test_write_durable_immediately(self, ring_ps):
        """Acknowledged before any EvictPath ran — still durable."""
        ring_ps.write(7, b"durable-now")
        assert ring_ps.stats.get("evict_paths") == 0
        ring_ps.crash()
        assert ring_ps.recover()
        assert ring_ps.read(7).data.rstrip(b"\x00") == b"durable-now"


class TestDurability:
    def test_quiescent_crash(self, ring_ps):
        rng = DeterministicRNG(2)
        model = {}
        for i in range(150):
            addr = rng.randrange(50)
            value = bytes([i % 256, addr]) + bytes(62)
            ring_ps.write(addr, value)
            model[addr] = value
        ring_ps.crash()
        assert ring_ps.recover()
        for addr, want in model.items():
            assert ring_ps.read(addr).data == want, f"address {addr} lost"

    def test_repeated_crash_cycles(self, ring_ps):
        rng = DeterministicRNG(3)
        model = {}
        for cycle in range(4):
            for i in range(25):
                addr = rng.randrange(35)
                value = bytes([cycle, i]) + bytes(62)
                ring_ps.write(addr, value)
                model[addr] = value
            ring_ps.crash()
            assert ring_ps.recover()
        for addr, want in model.items():
            assert ring_ps.read(addr).data == want

    @pytest.mark.parametrize("point", RING_CRASH_POINTS)
    def test_crash_matrix(self, point):
        """Mid-access crash at every PS-Ring checkpoint stays consistent."""
        controller = build_variant("ring-ps", small_config(height=6, seed=3))
        rng = DeterministicRNG(4)
        model = {}
        for i in range(60):
            addr = rng.randrange(30)
            value = bytes([i % 256, 9]) + bytes(62)
            controller.write(addr, value)
            model[addr] = value

        fired = []

        def hook(label):
            if label == point and not fired:
                fired.append(label)
                raise SimulatedCrash(label)

        controller.crash_hook = hook
        victim, payload = 5, b"mid-flight"
        try:
            controller.write(victim, payload)
            acked = True
        except SimulatedCrash:
            acked = False
        controller.crash_hook = None
        controller.crash()
        assert controller.recover()

        got = controller.read(victim).data
        old = model.get(victim, bytes(64))
        new = payload + bytes(64 - len(payload))
        if acked:
            assert got == new, (point, "acknowledged write lost")
        else:
            assert got in (old, new), (point, "in-flight write torn")
        for addr, want in model.items():
            if addr == victim:
                continue
            assert controller.read(addr).data == want, (point, addr)


class TestOverheadShape:
    def test_ps_ring_overhead_moderate(self):
        """PS-Ring costs more than PS-Path (per-access write-back) but stays
        well under the Naive/FullNVM class of overheads."""
        config = small_config(height=7, seed=3)
        base = RingORAMController(config)
        ps = build_variant("ring-ps", config)
        rng_a, rng_b = DeterministicRNG(5), DeterministicRNG(5)
        for i in range(150):
            base.write(rng_a.randrange(50), b"v")
            ps.write(rng_b.randrange(50), b"v")
        ratio = ps.now / base.now
        assert 1.0 < ratio < 1.35

    def test_temp_posmap_bounded_by_evict_cadence(self, ring_ps):
        rng = DeterministicRNG(6)
        for i in range(120):
            ring_ps.write(rng.randrange(40), b"v")
        # Entries drain at EvictPath; occupancy stays near A + stash lag.
        assert ring_ps.temp_posmap.peak_occupancy < 6 * ring_ps.params.a


class TestPosmapWPQSizing:
    """EvictPath can graduate one dirty entry per block placed on the path.

    The posmap WPQ used to get a fixed floor of 8 entries under small WPQ
    configs; a path's worth of pending remaps then overflows mid-round.
    Sizing now mirrors the data WPQ's full-path rule.
    """

    def test_capacity_covers_a_full_path(self):
        from repro.config import WPQConfig

        config = small_config(height=6, seed=3, wpq=WPQConfig(4, 4))
        c = build_variant("ring-ps", config)
        needed = c.params.slots_per_bucket * (c.store.height + 1)
        assert needed > 8, "config too small to exercise the old floor"
        assert c.drainer.posmap_wpq.capacity >= needed

    def test_full_path_of_dirty_entries_fits_one_round(self):
        from repro.config import WPQConfig

        config = small_config(height=6, seed=3, wpq=WPQConfig(4, 4))
        c = build_variant("ring-ps", config)
        needed = c.params.slots_per_bucket * (c.store.height + 1)
        region = c.persistent_posmap.region
        c.drainer.start()
        for address in range(needed):
            c.drainer.push_posmap_entry(
                region.entry_address(address), address, 0
            )
        c.drainer.end()
        c.drainer.flush(0)

    def test_old_floor_overflows_on_the_same_load(self):
        from repro.errors import WPQOverflowError
        from repro.mem.wpq import WritePendingQueue

        wpq = WritePendingQueue("posmap", 8)
        wpq.begin_round()
        with pytest.raises(WPQOverflowError):
            for i in range(9):
                wpq.push(i, (i, 0))
