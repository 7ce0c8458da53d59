"""Tests for the stash occupancy analysis."""

import pytest

from repro.config import small_config
from repro.core.variants import build_variant
from repro.oram.controller import PathORAMController
from repro.oram.stash_analysis import _fit_tail, profile_stash


class TestTailFit:
    def test_geometric_tail_recovered(self):
        # Survival halves per step => histogram mass ~ 2^-k.
        histogram = {k: int(2 ** (12 - k)) for k in range(13)}
        rho = _fit_tail(histogram)
        assert rho is not None
        assert rho == pytest.approx(0.5, rel=0.2)

    def test_too_few_points(self):
        assert _fit_tail({0: 100}) is None
        assert _fit_tail({}) is None


class TestProfile:
    @pytest.fixture(scope="class")
    def profile(self):
        # Z = 2 queues enough blocks to expose a measurable occupancy tail
        # (at the paper's Z = 4 the post-eviction stash is essentially
        # always empty — which TestAcrossVariants checks directly).
        controller = PathORAMController(
            small_config(height=8, z=2, seed=13, stash_capacity=400)
        )
        return profile_stash(controller, accesses=400)

    def test_peak_far_below_capacity(self, profile):
        """The paper's sizing claim: 200 entries is ample at 50% util."""
        assert profile.peak < 0.4 * profile.capacity
        assert profile.headroom > 0.6

    def test_mean_is_small(self, profile):
        assert profile.mean < 15

    def test_z4_stash_essentially_empty(self):
        """The paper's Z = 4 / 50%-utilization point: nothing queues."""
        controller = PathORAMController(small_config(height=8, seed=13))
        profile = profile_stash(controller, accesses=300)
        assert profile.mean < 1.0
        assert profile.peak <= 4

    def test_tail_decays(self, profile):
        assert profile.tail_decay is not None
        assert profile.tail_decay < 1.0

    def test_overflow_probability_negligible(self, profile):
        # The extrapolated tail varies with the (deterministic) workload
        # draw; "negligible" here means far below any observable rate.
        assert profile.overflow_probability_estimate() < 1e-4

    def test_histogram_accounts_every_sample(self, profile):
        assert sum(profile.histogram.values()) == profile.samples


class TestAcrossVariants:
    def test_ps_oram_stash_not_inflated_by_backups(self):
        """Paper Claim 2, statistically: backups do not raise occupancy."""
        config = small_config(height=7, seed=13)
        base = profile_stash(PathORAMController(config), accesses=300)
        ps = profile_stash(build_variant("ps", config), accesses=300)
        # Same workload, same tree: PS's post-access occupancy stays within
        # a small additive margin of the baseline's.
        assert ps.mean <= base.mean + 2.0
        assert ps.peak <= base.peak + 4

    def test_smaller_z_needs_more_stash(self):
        """Z=2 is known to push blocks into the stash at 50% utilization."""
        z4 = profile_stash(
            PathORAMController(small_config(height=7, z=4, seed=13)),
            accesses=300,
        )
        z2 = profile_stash(
            PathORAMController(
                small_config(height=7, z=2, seed=13, stash_capacity=400)
            ),
            accesses=300,
        )
        assert z2.mean > z4.mean

    def test_custom_op(self):
        controller = PathORAMController(small_config(height=6, seed=13))
        reads = []

        def op(ctl, rng, i):
            reads.append(i)
            ctl.read(rng.randrange(10))

        profile = profile_stash(controller, accesses=50, op=op)
        assert len(reads) == 50
        assert profile.samples == 50
