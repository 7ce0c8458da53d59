"""Tests for the runnable eADR-ORAM variant."""

import pytest

from repro.config import small_config
from repro.core.variants import build_variant
from repro.util.rng import DeterministicRNG


@pytest.fixture
def eadr():
    return build_variant("eadr-oram", small_config(height=6, seed=8))


class TestEADRFunctional:
    def test_roundtrip(self, eadr):
        eadr.write(3, b"x")
        assert eadr.read(3).data.rstrip(b"\x00") == b"x"

    def test_crash_recovery_durability(self, eadr):
        rng = DeterministicRNG(1)
        model = {}
        for i in range(80):
            addr = rng.randrange(40)
            value = bytes([i % 256]) + bytes(63)
            eadr.write(addr, value)
            model[addr] = value
        eadr.crash()
        assert eadr.recover()
        for addr, want in model.items():
            assert eadr.read(addr).data == want

    def test_repeated_cycles(self, eadr):
        rng = DeterministicRNG(2)
        model = {}
        for cycle in range(3):
            for i in range(20):
                addr = rng.randrange(25)
                value = bytes([cycle, i]) + bytes(62)
                eadr.write(addr, value)
                model[addr] = value
            eadr.crash()
            assert eadr.recover()
        for addr, want in model.items():
            assert eadr.read(addr).data == want


class TestEADRCost:
    def test_crash_bills_table2_energy(self, eadr):
        eadr.write(1, b"x")
        eadr.crash()
        assert eadr.crash_energy_pj > 0
        assert eadr.crash_time_ns > 0

    def test_drain_bill_dwarfs_ps_oram(self):
        """The point of Table 2: eADR pays orders of magnitude more."""
        config = small_config(height=6, seed=8)
        eadr = build_variant("eadr-oram", config)
        ps = build_variant("ps", config)
        rng_a, rng_b = DeterministicRNG(3), DeterministicRNG(3)
        for i in range(30):
            eadr.write(rng_a.randrange(20), b"v")
            ps.write(rng_b.randrange(20), b"v")
        eadr.crash()
        ps.crash()
        from repro.engine.eadr import compare_draining

        estimates = compare_draining(config)
        assert eadr.crash_energy_pj == pytest.approx(
            estimates["eADR-ORAM"].energy_pj
        )
        assert (
            eadr.crash_energy_pj > 100 * estimates["PS-ORAM"].energy_pj
        )

    def test_runtime_identical_to_baseline(self):
        """eADR costs nothing at runtime — only at crash time."""
        from repro.oram.controller import PathORAMController

        config = small_config(height=6, seed=8)
        base = PathORAMController(config)
        eadr = build_variant("eadr-oram", config)
        rng_a, rng_b = DeterministicRNG(4), DeterministicRNG(4)
        for i in range(50):
            base.write(rng_a.randrange(25), b"v")
            eadr.write(rng_b.randrange(25), b"v")
        assert eadr.now == base.now
        assert eadr.traffic.total_writes == base.traffic.total_writes
