"""Tests for the recursive PosMap ORAM (Rcr-Baseline)."""

import pytest

from repro.config import small_config
from repro.core.variants import get_spec
from repro.engine.policy import VolatilePolicy
from repro.engine.ps import DirtyEntryPSPolicy
from repro.mem.request import RequestKind
from repro.oram.recursive import (
    RecursivePathORAM,
    pack_entry,
    unpack_entry,
)
from repro.util.rng import DeterministicRNG


class TestEntryPacking:
    def test_pack_unpack_roundtrip(self):
        payload = bytes(64)
        payload = pack_entry(payload, 3, 1234)
        assert unpack_entry(payload, 3) == 1234
        assert unpack_entry(payload, 0) == 0

    def test_slots_independent(self):
        payload = bytes(64)
        payload = pack_entry(payload, 0, 7)
        payload = pack_entry(payload, 1, 9)
        assert unpack_entry(payload, 0) == 7
        assert unpack_entry(payload, 1) == 9


@pytest.fixture
def rcr():
    return RecursivePathORAM(small_config(height=7, seed=4))


class TestRecursivePathORAM:
    def test_roundtrip(self, rcr):
        rcr.write(5, b"deep")
        assert rcr.read(5).data.rstrip(b"\x00") == b"deep"

    def test_random_workload(self, rcr):
        rng = DeterministicRNG(6)
        model = {}
        for i in range(200):
            addr = rng.randrange(80)
            if rng.random() < 0.5:
                value = bytes([i % 256])
                rcr.write(addr, value)
                model[addr] = value + bytes(63)
            else:
                assert rcr.read(addr).data == model.get(addr, bytes(64))

    def test_posmap_tree_smaller_than_data_tree(self, rcr):
        assert rcr.layout.posmap_tree.height < rcr.tree.height

    def test_posmap_traffic_tagged(self, rcr):
        rcr.write(5, b"x")
        assert rcr.traffic.reads_of(RequestKind.POSMAP) > 0
        assert rcr.traffic.writes_of(RequestKind.POSMAP) > 0

    def test_posmap_access_per_data_access(self, rcr):
        rcr.write(5, b"x")
        pm_slots = rcr.posmap_oram.controller.tree.path_slots
        data_slots = rcr.tree.path_slots
        reads = rcr.traffic.total_reads
        # One posmap path + one data path (plus any posmap stash-hit skips).
        assert reads in (data_slots, data_slots + pm_slots)

    def test_read_traffic_increase_matches_tree_ratio(self, rcr):
        """Fig 6(a): recursion adds roughly pm_path/data_path read traffic."""
        rng = DeterministicRNG(8)
        for i in range(100):
            rcr.write(rng.randrange(60), b"v")
        posmap_reads = rcr.traffic.reads_of(RequestKind.POSMAP)
        data_reads = rcr.traffic.reads_of(RequestKind.DATA_PATH)
        ratio = posmap_reads / data_reads
        expected = (
            rcr.posmap_oram.controller.tree.path_slots / rcr.tree.path_slots
        )
        assert ratio == pytest.approx(expected, rel=0.35)

    def test_architectural_and_tree_views_agree(self, rcr):
        rng = DeterministicRNG(9)
        for i in range(80):
            rcr.write(rng.randrange(40), b"v")
        assert rcr.stats.get("posmap_divergence") == 0

    def test_not_crash_consistent(self, rcr):
        rcr.write(5, b"x")
        rcr.crash()
        assert not rcr.recover()
        assert not rcr.supports_crash_consistency()

    def test_crash_clears_both_trees_volatile_state(self, rcr):
        rcr.write(5, b"x")
        rcr.crash()
        assert rcr.stash.occupancy == 0
        assert rcr.posmap_oram.controller.stash.occupancy == 0


@pytest.mark.parametrize("variant, policy", [
    ("rcr-baseline", VolatilePolicy),
    ("rcr-ps", DirtyEntryPSPolicy),
])
def test_posmap_tree_policy_per_variant(variant, policy):
    controller = get_spec(variant).make(small_config(height=6))
    posmap_controller = controller.posmap_oram.controller
    assert type(posmap_controller.policy) is policy
    assert posmap_controller.tree.region == controller.layout.posmap_tree
