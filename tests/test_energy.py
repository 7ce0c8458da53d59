"""Tests for the draining energy/time model (paper Tables 1-2)."""

import pytest

from repro.config import paper_config
from repro.engine.eadr import compare_draining, inventories_for_config
from repro.energy.model import (
    DRAIN_BYTES_PER_NS,
    DrainCostModel,
    DrainInventory,
    EADR_CACHE,
    EADR_ORAM,
    PS_ORAM,
    PS_ORAM_SMALL,
    ps_oram_inventory,
)


class TestPaperTable2Numbers:
    """The model must land on the paper's own Table-2 cells."""

    def test_ps_oram_96_entry_bytes(self):
        # 96 x 64B data + 96 x 7B posmap = 6816 bytes.
        assert PS_ORAM.total_bytes == 6816

    def test_ps_oram_96_energy_close_to_76_53_uj(self):
        assert PS_ORAM.energy_uj == pytest.approx(76.53, rel=0.01)

    def test_ps_oram_96_time_close_to_161ns(self):
        assert PS_ORAM.time_ns == pytest.approx(161.134, rel=0.01)

    def test_ps_oram_4_entry_time_close_to_6_7ns(self):
        assert PS_ORAM_SMALL.time_ns == pytest.approx(6.713, rel=0.01)

    def test_eadr_cache_energy_close_to_12_65_mj(self):
        assert EADR_CACHE.energy_pj / 1e9 == pytest.approx(12.653, rel=0.01)

    def test_eadr_oram_energy_order_of_2_3_joules(self):
        joules = EADR_ORAM.energy_pj / 1e12
        assert joules == pytest.approx(2.286, rel=0.06)

    def test_eadr_oram_time_order_of_4_8_ms(self):
        ms = EADR_ORAM.time_ns / 1e6
        assert ms == pytest.approx(4.817, rel=0.06)

    def test_normalized_factors_match_magnitudes(self):
        # eADR-ORAM vs PS-ORAM(96): paper reports ~29870x energy.
        assert EADR_ORAM.energy_pj / PS_ORAM.energy_pj == pytest.approx(29870, rel=0.07)
        # eADR-cache vs PS-ORAM(96): ~165x.
        assert EADR_CACHE.energy_pj / PS_ORAM.energy_pj == pytest.approx(165, rel=0.07)

    def test_five_to_six_orders_of_magnitude_claim(self):
        ratio_small = EADR_ORAM.energy_pj / PS_ORAM_SMALL.energy_pj
        assert 1e5 < ratio_small < 1e7


class TestModelMechanics:
    def test_drain_time_proportional_to_bytes(self):
        model = DrainCostModel()
        small = model.estimate(DrainInventory("s", wpq_bytes=1000))
        large = model.estimate(DrainInventory("l", wpq_bytes=2000))
        assert large.time_ns == pytest.approx(2 * small.time_ns)
        assert small.time_ns == pytest.approx(1000 / DRAIN_BYTES_PER_NS)

    def test_l1_bytes_cost_more_than_l2(self):
        model = DrainCostModel()
        via_l1 = model.estimate(DrainInventory("a", l1_bytes=1000))
        via_l2 = model.estimate(DrainInventory("b", l2_bytes=1000))
        assert via_l1.energy_pj > via_l2.energy_pj

    def test_wpq_scaling(self):
        assert ps_oram_inventory(96).total_bytes == 24 * ps_oram_inventory(4).total_bytes


class TestConfigDrivenComparison:
    def test_paper_config_comparison_ordering(self):
        estimates = compare_draining(paper_config())
        assert (
            estimates["PS-ORAM"].energy_pj
            < estimates["eADR-cache"].energy_pj
            < estimates["eADR-ORAM"].energy_pj
        )

    def test_inventories_scale_with_posmap(self):
        inventories = inventories_for_config(paper_config())
        # The flat PosMap dominates eADR-ORAM's drain inventory.
        eadr = inventories["eADR-ORAM"]
        assert eadr.posmap_bytes > 0.9 * (eadr.total_bytes - eadr.posmap_bytes)
