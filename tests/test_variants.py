"""Tests for the variant factory and per-variant traffic signatures."""

import pytest

from repro.config import small_config
from repro.core.variants import (
    NON_RECURSIVE_VARIANTS,
    RECURSIVE_VARIANTS,
    build_variant,
    get_spec,
    variant_specs,
)
from repro.mem.request import RequestKind
from repro.util.rng import DeterministicRNG
from tests.cases import registry_cases

VARIANT_NAMES = [spec.name for spec in variant_specs()]


class TestFactory:
    def test_all_variants_buildable(self):
        config = small_config(height=6)
        for name in VARIANT_NAMES:
            controller = build_variant(name, config)
            assert hasattr(controller, "access")

    def test_unknown_variant_lists_known(self):
        with pytest.raises(KeyError, match="baseline"):
            build_variant("does-not-exist", small_config(height=6))

    def test_variant_groups_cover_evaluated_systems(self):
        assert set(NON_RECURSIVE_VARIANTS) <= set(VARIANT_NAMES)
        assert set(RECURSIVE_VARIANTS) <= set(VARIANT_NAMES)

    @pytest.mark.parametrize("name,integrity", registry_cases())
    def test_builds_never_share_policy_state(self, name, integrity):
        # A policy owns per-controller state, so each build of a spec
        # must construct its own policy, WPQs and temporary PosMap.
        spec = get_spec(name)
        config = small_config(height=6, integrity=integrity)
        first, second = (spec.make(config) for _ in range(2))
        if integrity:
            assert first.integrity is not None
            assert first.integrity is not second.integrity
        assert first.policy is not second.policy
        assert first.policy.c is first and second.policy.c is second
        if hasattr(first, "drainer"):
            assert first.drainer.data_wpq is not second.drainer.data_wpq
            assert first.drainer.posmap_wpq is not second.drainer.posmap_wpq
            assert first.temp_posmap is not second.temp_posmap


class TestFunctionalEquivalence:
    """All ORAM variants implement identical program-visible semantics."""

    @pytest.mark.parametrize("name,integrity", registry_cases())
    def test_roundtrip(self, name, integrity):
        controller = build_variant(name, small_config(height=6, integrity=integrity))
        controller.write(3, b"payload")
        assert controller.read(3).data.rstrip(b"\x00") == b"payload"

    @pytest.mark.parametrize("name", ["baseline", "ps", "naive-ps", "fullnvm"])
    def test_model_agreement(self, name):
        controller = build_variant(name, small_config(height=6))
        rng = DeterministicRNG(9)
        model = {}
        for i in range(120):
            addr = rng.randrange(40)
            if rng.random() < 0.5:
                value = bytes([i % 256])
                controller.write(addr, value)
                model[addr] = value + bytes(63)
            else:
                assert controller.read(addr).data == model.get(addr, bytes(64))


class TestCrashConsistencySupportMatrix:
    """Only the PS variants (and trivially plain) are crash consistent."""

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("plain", True),
            ("baseline", False),
            ("fullnvm", False),
            ("naive-ps", True),
            ("ps", True),
            ("rcr-baseline", False),
            ("rcr-ps", True),
            ("eadr-oram", True),
        ],
    )
    def test_support_flag(self, name, expected):
        controller = build_variant(name, small_config(height=6))
        assert controller.supports_crash_consistency() is expected


class TestTrafficSignatures:
    def _drive(self, name, config=None, writes=80):
        controller = build_variant(name, config or small_config(height=6, seed=3))
        rng = DeterministicRNG(10)
        for i in range(writes):
            controller.write(rng.randrange(30), bytes([i % 256]))
        return controller

    def test_naive_persists_entry_per_path_slot(self):
        naive = self._drive("naive-ps")
        persist = naive.traffic.writes_of(RequestKind.PERSIST)
        data = naive.traffic.writes_of(RequestKind.DATA_PATH)
        # Naive flushes Z*(L+1) entries per eviction round: persist ~= data.
        assert persist == pytest.approx(data, rel=0.05)

    def test_ps_persists_far_less_than_naive(self):
        ps = self._drive("ps")
        naive = self._drive("naive-ps")
        assert (
            ps.traffic.writes_of(RequestKind.PERSIST)
            < 0.2 * naive.traffic.writes_of(RequestKind.PERSIST)
        )

    def test_fullnvm_onchip_traffic(self):
        fullnvm = self._drive("fullnvm")
        # Figure 6 counts on-chip NVM writes on top of main memory's.
        assert fullnvm.onchip.traffic.total_writes > 0

    def test_recursive_adds_posmap_tree_traffic(self):
        rcr = self._drive("rcr-baseline")
        assert rcr.traffic.reads_of(RequestKind.POSMAP) > 0
        assert rcr.traffic.writes_of(RequestKind.POSMAP) > 0

    def test_plain_single_access_per_op(self):
        plain = self._drive("plain", writes=10)
        assert plain.traffic.total_writes == 10
