"""Tests for the FullNVM strawman and the plain NVM yardstick."""

import pytest

from repro.config import STTRAM_TIMING, small_config
from repro.core.plain import PlainNVMController
from repro.core.variants import build_variant
from repro.engine.fullnvm import FullNVMPolicy
from repro.errors import InvalidAddressError
from repro.oram.controller import PathORAMController
from repro.util.rng import DeterministicRNG


class TestFullNVM:
    def test_slower_than_baseline(self):
        config = small_config(height=6, seed=2)
        base = PathORAMController(config)
        full = build_variant("fullnvm", config)
        rng_a, rng_b = DeterministicRNG(1), DeterministicRNG(1)
        for i in range(60):
            base.write(rng_a.randrange(30), b"v")
            full.write(rng_b.randrange(30), b"v")
        assert full.now > base.now

    def test_stt_faster_than_pcm_variant(self):
        config = small_config(height=6, seed=2)
        pcm = build_variant("fullnvm", config)
        stt = build_variant("fullnvm-stt", config)
        assert stt.onchip.device.timing.name == "STTRAM"
        rng_a, rng_b = DeterministicRNG(1), DeterministicRNG(1)
        for i in range(60):
            pcm.write(rng_a.randrange(30), b"v")
            stt.write(rng_b.randrange(30), b"v")
        assert stt.now < pcm.now

    def test_crash_keeps_nvm_structures(self):
        config = small_config(height=6, seed=2)
        full = build_variant("fullnvm", config)
        full.write(1, b"x")
        stash_before = full.stash.occupancy
        posmap_before = dict(full.posmap.modified_entries())
        full.crash()
        # Non-volatile on-chip structures: bits survive.
        assert full.stash.occupancy == stash_before
        assert dict(full.posmap.modified_entries()) == posmap_before
        # ...but the design still does not claim crash consistency.
        assert not full.supports_crash_consistency()

    def test_onchip_timing_override(self):
        config = small_config(height=6)
        full = PathORAMController(config, policy=FullNVMPolicy(STTRAM_TIMING))
        assert full.onchip.device.timing.name == "STTRAM"


class TestPlainNVM:
    def test_roundtrip(self):
        plain = PlainNVMController(small_config(height=6))
        plain.write(3, b"direct")
        assert plain.read(3).data.rstrip(b"\x00") == b"direct"

    def test_read_stalls_write_posted(self):
        plain = PlainNVMController(small_config(height=6))
        t0 = plain.now
        plain.write(0, b"x")
        t_after_write = plain.now
        plain.read(1)
        assert t_after_write == t0  # posted write
        assert plain.now > t_after_write  # read stalls

    def test_unwritten_reads_zero(self):
        plain = PlainNVMController(small_config(height=6))
        assert plain.read(7).data == bytes(64)

    def test_bounds(self):
        plain = PlainNVMController(small_config(height=6))
        with pytest.raises(InvalidAddressError):
            plain.read(10**9)

    def test_rejects_read_modify_write(self):
        plain = PlainNVMController(small_config(height=6))
        with pytest.raises(ValueError, match="does not support read-modify-write"):
            plain.read_modify_write(3, lambda old: old)
        # The address is still checked before the mutator.
        with pytest.raises(InvalidAddressError):
            plain.read_modify_write(10**9, lambda old: old)
        assert plain.stats.snapshot().get("accesses", 0) == 0

    def test_oram_overhead_magnitude(self):
        """The paper's Section-5.1 remark: ORAM costs an order of magnitude."""
        config = small_config(height=8, seed=2)
        plain = PlainNVMController(config)
        oram = PathORAMController(config)
        rng_a, rng_b = DeterministicRNG(1), DeterministicRNG(1)
        for _ in range(100):
            plain.read(rng_a.randrange(200))
            oram.read(rng_b.randrange(200))
        ratio = oram.now / max(plain.now, 1)
        assert ratio > 4  # 2x-24x in the paper; height-8 tree sits within
