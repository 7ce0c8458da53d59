"""Tests for the PS-ORAM controller: protocol, durability, overheads."""

import pytest

from repro.config import small_config
from repro.core.variants import build_variant
from repro.mem.request import RequestKind
from repro.oram.controller import PathORAMController
from repro.util.rng import DeterministicRNG


@pytest.fixture
def ps():
    return build_variant("ps", small_config(height=6, seed=5))


class TestFunctionalParity:
    """PS-ORAM must behave exactly like Path ORAM for the program."""

    def test_roundtrip(self, ps):
        ps.write(3, b"hello")
        assert ps.read(3).data.rstrip(b"\x00") == b"hello"

    def test_random_workload_matches_model(self, ps):
        rng = DeterministicRNG(1)
        model = {}
        for i in range(300):
            addr = rng.randrange(80)
            if rng.random() < 0.5:
                value = bytes([i % 256]) * 3
                ps.write(addr, value)
                model[addr] = value + bytes(61)
            else:
                assert ps.read(addr).data == model.get(addr, bytes(64))

    def test_supports_crash_consistency(self, ps):
        assert ps.supports_crash_consistency()


class TestProtocolMechanisms:
    def test_backup_created_per_full_access(self, ps):
        ps.write(1, b"x")
        assert ps.stats.get("backups_created") == 1

    def test_temp_posmap_holds_pending_remap(self, ps):
        """Until the block is durably evicted, the main PosMap is stale."""
        # Track mid-access state via the crash hook.
        seen = {}

        def hook(label):
            if label == "step5:before-start" and not seen:
                seen["temp"] = ps.temp_posmap.occupancy

        ps.crash_hook = hook
        ps.write(1, b"x")
        ps.crash_hook = None
        assert seen["temp"] == 1

    def test_posmap_mirror_tracks_persistent_image(self, ps):
        rng = DeterministicRNG(2)
        for i in range(100):
            ps.write(rng.randrange(40), bytes([i % 256]))
        for address, path in ps.posmap.modified_entries():
            assert ps.persistent_posmap.read_entry(address) == path

    def test_drained_entries_leave_temp_posmap(self, ps):
        rng = DeterministicRNG(3)
        for i in range(50):
            ps.write(rng.randrange(30), b"v")
        # Entries drain once blocks are evicted; occupancy stays bounded by
        # the number of remapped blocks still in the stash.
        live_remapped = sum(
            1 for e in ps.stash.entries()
            if not e.is_backup and e.block.address in ps.temp_posmap
        )
        assert ps.temp_posmap.occupancy == live_remapped

    @staticmethod
    def _plant_in_stash(controller, address, data):
        """Manufacture a consistent stash-resident live block.

        The block sits in the stash, the on-chip mirror and the persistent
        PosMap agree on its label, and no tree copy exists — the state a
        not-yet-evicted block is in.
        """
        from repro.oram.block import Block
        from repro.oram.stash import StashEntry

        label = controller.posmap.get(address)
        controller.persistent_posmap.write_entry(address, label)
        controller.posmap.set(address, label)
        block = Block(
            address=address,
            path_id=label,
            data=data + bytes(64 - len(data)),
            version=controller._next_version(),
        )
        controller.stash.add(StashEntry(block, dirty=True))

    def test_stash_hit_write_runs_full_access(self, ps):
        """A write must be durable when acknowledged, even on a stash hit."""
        self._plant_in_stash(ps, 1, b"first")
        before = ps.traffic.total_reads
        ps.write(1, b"second")
        assert ps.traffic.total_reads > before  # full path access happened
        ps.crash()
        ps.recover()
        assert ps.read(1).data.rstrip(b"\x00") == b"second"

    def test_stash_hit_read_short_circuits(self, ps):
        self._plant_in_stash(ps, 1, b"x")
        before = ps.traffic.total_reads
        result = ps.read(1)
        assert result.stash_hit
        assert ps.traffic.total_reads == before

    def test_graduated_label_crash_consistent(self, ps):
        """Back-to-back writes with pending remaps survive crashes at every
        protocol point — the graduation path's durability check."""
        from repro.errors import SimulatedCrash

        for crash_point in ("step2:after-remap", "step5:before-end",
                            "step5:after-end"):
            controller = build_variant("ps", small_config(height=6, seed=5))
            self._plant_in_stash(controller, 2, b"gen-0")
            controller.write(2, b"gen-1")  # leaves a pending remap

            fired = []

            def hook(label):
                if label == crash_point and not fired:
                    fired.append(label)
                    raise SimulatedCrash(label)

            controller.crash_hook = hook
            try:
                controller.write(2, b"gen-2")  # graduation path
                acked = True
            except SimulatedCrash:
                acked = False
            controller.crash_hook = None
            controller.crash()
            assert controller.recover()
            got = controller.read(2).data.rstrip(b"\x00")
            if acked:
                assert got == b"gen-2", crash_point
            else:
                assert got in (b"gen-1", b"gen-2"), (crash_point, got)

    def test_backup_occupancy_claim(self, ps):
        """Paper Claim 2: backups do not grow stash occupancy over time."""
        rng = DeterministicRNG(4)
        for i in range(200):
            ps.write(rng.randrange(60), b"v")
        backups_resident = len(ps.stash.backup_entries())
        # Backups leave with their own eviction round; a handful at most
        # may transiently remain.
        assert backups_resident <= 2


class TestDirtyEntryPersistence:
    def test_persist_traffic_is_small_fraction(self, ps):
        rng = DeterministicRNG(5)
        for i in range(200):
            ps.write(rng.randrange(60), b"v")
        persist = ps.traffic.writes_of(RequestKind.PERSIST)
        data = ps.traffic.writes_of(RequestKind.DATA_PATH)
        assert persist > 0
        assert persist < 0.15 * data  # dirty-only: way below Naive's ~100%

    def test_write_traffic_close_to_baseline(self):
        config = small_config(height=6, seed=5)
        base = PathORAMController(config)
        ps = build_variant("ps", config)
        rng_a, rng_b = DeterministicRNG(6), DeterministicRNG(6)
        for i in range(150):
            base.write(rng_a.randrange(50), b"v")
            ps.write(rng_b.randrange(50), b"v")
        ratio = ps.traffic.total_writes / base.traffic.total_writes
        assert 1.0 <= ratio < 1.15


class TestDurability:
    def test_all_acknowledged_writes_survive_crash(self, ps):
        rng = DeterministicRNG(7)
        model = {}
        for i in range(150):
            addr = rng.randrange(50)
            value = bytes([i % 256, addr]) + bytes(62)
            ps.write(addr, value)
            model[addr] = value
        ps.crash()
        assert ps.recover()
        for addr, want in model.items():
            assert ps.read(addr).data == want, f"address {addr} lost"

    def test_repeated_crash_cycles(self, ps):
        rng = DeterministicRNG(8)
        model = {}
        for cycle in range(5):
            for i in range(30):
                addr = rng.randrange(40)
                value = bytes([cycle, i % 256]) + bytes(62)
                ps.write(addr, value)
                model[addr] = value
            ps.crash()
            assert ps.recover()
        for addr, want in model.items():
            assert ps.read(addr).data == want

    def test_version_counter_restored(self, ps):
        ps.write(1, b"x")
        version_before = ps._version
        ps.crash()
        ps.recover()
        assert ps._version >= version_before - 1  # at least last committed

    def test_reads_after_recovery_see_zero_for_unwritten(self, ps):
        ps.write(1, b"x")
        ps.crash()
        ps.recover()
        assert ps.read(9).data == bytes(64)
