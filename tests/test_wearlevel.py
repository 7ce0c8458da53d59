"""Tests for Start-Gap wear leveling."""

import pytest

from repro.config import PCM_TIMING, small_config
from repro.core.variants import build_variant
from repro.integrity.domain import enable_integrity
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access
from repro.mem.wearlevel import StartGapRemapper, attach_wear_leveling
from repro.util.rng import DeterministicRNG


@pytest.fixture
def leveled():
    memory = NVMMainMemory(PCM_TIMING, track_wear=True)
    # randomize=False: the algebra tests check the raw Start-Gap map.
    remapper = StartGapRemapper(memory, base=0, num_lines=16, gap_period=4,
                                randomize=False)
    return memory, remapper


class TestMappingAlgebra:
    def test_initial_identity(self, leveled):
        _, remapper = leveled
        assert [remapper.physical_line(i) for i in range(16)] == list(range(16))

    def test_mapping_is_always_a_bijection(self, leveled):
        memory, remapper = leveled
        for step in range(100):
            physical = [remapper.physical_line(i) for i in range(16)]
            assert len(set(physical)) == 16
            assert all(0 <= p <= 16 for p in physical)
            assert remapper.gap not in physical
            remapper._move_gap(0)

    def test_start_advances_after_full_sweep(self, leveled):
        _, remapper = leveled
        for _ in range(17):  # 16 moves + the wrap step
            remapper._move_gap(0)
        assert remapper.start == 1


class TestFunctionalTransparency:
    def test_store_load_roundtrip_through_remap(self, leveled):
        memory, _ = leveled
        memory.store_line(5 * 64, b"five")
        assert memory.load_line(5 * 64) == b"five"

    def test_content_survives_gap_migrations(self, leveled):
        memory, remapper = leveled
        for line in range(16):
            memory.store_line(line * 64, bytes([line]))
        for _ in range(40):  # several sweeps worth of gap moves
            remapper._move_gap(0)
        for line in range(16):
            assert memory.load_line(line * 64) == bytes([line]), line

    def test_writes_trigger_gap_moves(self, leveled):
        memory, remapper = leveled
        for i in range(12):
            memory.issue(0, Access.WRITE, 0, data=b"x")
        assert remapper.stats.get("gap_moves") == 3  # every 4 writes

    def test_out_of_region_untouched(self, leveled):
        memory, _ = leveled
        far = 64 * 1024
        memory.store_line(far, b"outside")
        assert memory._image[far // 64] == b"outside"  # physically in place

    def test_detach_restores(self, leveled):
        memory, remapper = leveled
        remapper.detach()
        memory.store_line(5 * 64, b"raw")
        assert memory._image[5] == b"raw"


class TestFeistel:
    def test_is_a_permutation(self):
        from repro.mem.wearlevel import FeistelPermutation

        for n in (7, 16, 100, 509):
            perm = FeistelPermutation(n)
            images = {perm.apply(i) for i in range(n)}
            assert images == set(range(n))

    def test_scatters_clusters(self):
        from repro.mem.wearlevel import FeistelPermutation

        perm = FeistelPermutation(512)
        images = sorted(perm.apply(i) for i in range(4))
        # Four adjacent inputs land far apart (no adjacent pair survives).
        gaps = [b - a for a, b in zip(images, images[1:])]
        assert max(gaps) > 16

    def test_keyed(self):
        from repro.mem.wearlevel import FeistelPermutation

        a = FeistelPermutation(256, key=b"k1")
        b = FeistelPermutation(256, key=b"k2")
        assert [a.apply(i) for i in range(20)] != [b.apply(i) for i in range(20)]

    def test_bounds(self):
        from repro.mem.wearlevel import FeistelPermutation

        with pytest.raises(ValueError):
            FeistelPermutation(16).apply(16)


class TestWearSpreading:
    def test_hot_line_wear_spreads(self):
        memory = NVMMainMemory(PCM_TIMING, track_wear=True)
        StartGapRemapper(memory, base=0, num_lines=8, gap_period=2)
        for _ in range(400):
            memory.issue(0, Access.WRITE, 0, data=b"hot")
        # Without leveling all 400 writes hit one physical line; with it
        # the hottest physical line takes only a fraction.
        assert memory.traffic.max_line_writes() < 250

    def test_oram_controller_transparent_and_leveled(self):
        config = small_config(height=6, seed=4)
        controller = build_variant("ps", config)
        controller.memory.traffic.track_wear = True
        remapper = attach_wear_leveling(controller, gap_period=32)
        rng = DeterministicRNG(1)
        model = {}
        for i in range(150):
            addr = rng.randrange(40)
            value = bytes([i % 256])
            controller.write(addr, value)
            model[addr] = value + bytes(63)
        # Functional correctness through the remap + crash recovery.
        controller.crash()
        assert controller.recover()
        for addr, want in model.items():
            assert controller.read(addr).data == want
        assert remapper.stats.get("gap_moves") > 0

    def test_leveling_reduces_root_hotspot(self):
        def hottest(level: bool) -> int:
            config = small_config(height=6, seed=4)
            controller = build_variant("ps", config)
            controller.memory.traffic.track_wear = True
            if level:
                # Aggressive period so several sweeps fit in a short test;
                # the lifetime bench sweeps realistic periods.
                attach_wear_leveling(controller, gap_period=4)
            rng = DeterministicRNG(2)
            for i in range(200):
                controller.write(rng.randrange(40), b"v")
            return controller.memory.traffic.max_line_writes()

        assert hottest(level=True) < 0.7 * hottest(level=False)


class TestIntegrityCombination:
    """Start-Gap below an integrity domain would raise false tamper alarms
    (the domain observes physical addresses and reloads them through the
    translator), so the combination fails loudly in both attach orders."""

    def test_integrity_after_wear_leveling_raises(self):
        controller = build_variant("ps", small_config(height=6, seed=4))
        attach_wear_leveling(controller, gap_period=8)
        with pytest.raises(ValueError, match="address translator"):
            enable_integrity(controller)
        assert controller.integrity is None
        assert controller.memory.line_observer is None

    def test_wear_leveling_after_integrity_raises(self):
        controller = build_variant("ps", small_config(height=6, seed=4, integrity=True))
        assert controller.integrity is not None
        with pytest.raises(ValueError, match="line observer"):
            attach_wear_leveling(controller, gap_period=8)
        assert controller.memory.address_translator is None
        assert controller.memory.request_observer is None
