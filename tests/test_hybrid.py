"""Tests for the hybrid DRAM+NVM PS-ORAM (paper Section 4.5 direction)."""

import pytest

from repro.config import small_config
from repro.core.variants import build_variant
from repro.hybrid.controller import HybridPSORAMController
from repro.hybrid.treetop import TreeTopRegion
from repro.mem.request import RequestKind
from repro.oram.layout import TreeRegion
from repro.util.rng import DeterministicRNG


class TestTreeTopRegion:
    def _region(self, height=6, z=4):
        return TreeRegion(base=0, height=height, z=z, line_bytes=64)

    def test_slot_counts(self):
        top = TreeTopRegion(self._region(), dram_levels=3)
        assert top.dram_buckets == 7
        assert top.dram_slots == 28
        assert top.dram_bytes == 28 * 64

    def test_boundary_classification(self):
        top = TreeTopRegion(self._region(), dram_levels=2)
        assert top.is_dram(0)
        assert top.is_dram(top.boundary_address - 64)
        assert not top.is_dram(top.boundary_address)

    def test_zero_levels(self):
        top = TreeTopRegion(self._region(), dram_levels=0)
        assert not top.is_dram(0)
        assert top.fraction_of_path() == 0.0

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            TreeTopRegion(self._region(height=4), dram_levels=6)

    def test_path_fraction(self):
        top = TreeTopRegion(self._region(height=7), dram_levels=4)
        assert top.fraction_of_path() == pytest.approx(0.5)


@pytest.fixture
def hybrid():
    return HybridPSORAMController(small_config(height=7, seed=6), dram_levels=4)


class TestHybridFunctional:
    def test_roundtrip(self, hybrid):
        hybrid.write(3, b"tiered")
        assert hybrid.read(3).data.rstrip(b"\x00") == b"tiered"

    def test_random_workload(self, hybrid):
        rng = DeterministicRNG(1)
        model = {}
        for i in range(200):
            addr = rng.randrange(60)
            if rng.random() < 0.5:
                value = bytes([i % 256])
                hybrid.write(addr, value)
                model[addr] = value + bytes(63)
            else:
                assert hybrid.read(addr).data == model.get(addr, bytes(64))

    def test_crash_durability_unchanged(self, hybrid):
        rng = DeterministicRNG(2)
        model = {}
        for i in range(100):
            addr = rng.randrange(40)
            value = bytes([i % 256, 5]) + bytes(62)
            hybrid.write(addr, value)
            model[addr] = value
        hybrid.crash()
        assert hybrid.recover()
        for addr, want in model.items():
            assert hybrid.read(addr).data == want


class TestHybridPlacementEffects:
    def test_dram_serves_top_fraction_of_reads(self, hybrid):
        rng = DeterministicRNG(3)
        for i in range(60):
            hybrid.write(rng.randrange(30), b"v")
        expected = hybrid.treetop.fraction_of_path()
        assert hybrid.dram_read_fraction() == pytest.approx(expected, rel=0.05)

    def test_nvm_read_traffic_reduced(self):
        config = small_config(height=7, seed=6)
        plain_ps = build_variant("ps", config)
        hybrid = HybridPSORAMController(config, dram_levels=4)
        rng_a, rng_b = DeterministicRNG(4), DeterministicRNG(4)
        for i in range(80):
            plain_ps.write(rng_a.randrange(30), b"v")
            hybrid.write(rng_b.randrange(30), b"v")
        reads_plain = plain_ps.traffic.reads_of(RequestKind.DATA_PATH)
        reads_hybrid = hybrid.memory.traffic.reads_of(RequestKind.DATA_PATH)
        assert reads_hybrid == pytest.approx(reads_plain / 2, rel=0.05)

    def test_nvm_write_traffic_unchanged(self):
        """Write-through: durability writes all still land on NVM."""
        config = small_config(height=7, seed=6)
        plain_ps = build_variant("ps", config)
        hybrid = HybridPSORAMController(config, dram_levels=4)
        rng_a, rng_b = DeterministicRNG(5), DeterministicRNG(5)
        for i in range(80):
            plain_ps.write(rng_a.randrange(30), b"v")
            hybrid.write(rng_b.randrange(30), b"v")
        assert hybrid.memory.traffic.total_writes == plain_ps.traffic.total_writes

    def test_hybrid_faster_than_pure_nvm(self):
        config = small_config(height=7, seed=6)
        plain_ps = build_variant("ps", config)
        hybrid = HybridPSORAMController(config, dram_levels=5)
        rng_a, rng_b = DeterministicRNG(6), DeterministicRNG(6)
        for i in range(80):
            plain_ps.write(rng_a.randrange(30), b"v")
            hybrid.write(rng_b.randrange(30), b"v")
        assert hybrid.now < plain_ps.now

    def test_more_dram_levels_more_benefit(self):
        config = small_config(height=7, seed=6)
        times = {}
        for levels in (0, 3, 6):
            controller = HybridPSORAMController(config, dram_levels=levels)
            rng = DeterministicRNG(7)
            for i in range(60):
                controller.write(rng.randrange(30), b"v")
            times[levels] = controller.now
        assert times[6] < times[3] <= times[0]
