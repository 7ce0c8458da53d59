"""Security checks for the Ring ORAM implementation.

Ring's obliviousness rests on: uniform leaf labels; exactly one slot read
per bucket per access with no slot re-read between rewrites; and
reshuffle/eviction schedules that depend only on public counters.  These
tests check the observable properties, including that PS-Ring's in-place
write-back does not break the no-reuse rule.
"""

from collections import defaultdict

import pytest

from repro.config import small_config
from repro.ring.controller import RingORAMController
from repro.core.variants import build_variant
from repro.security.analysis import path_uniformity_pvalue
from repro.security.observer import BusObserver
from repro.util.rng import DeterministicRNG


class TestLabelStatistics:
    @pytest.mark.parametrize("variant", ["ring-baseline", "ring-ps"])
    def test_paths_uniform(self, variant):
        config = small_config(height=8, seed=7)
        controller = build_variant(variant, config)
        rng = DeterministicRNG(5)
        labels = []
        for i in range(300):
            result = controller.write(rng.randrange(150), b"v")
            if not result.stash_hit:
                labels.append(result.old_path)
        assert path_uniformity_pvalue(labels, config.oram.num_leaves) > 0.01

    def test_hot_block_invisible(self):
        config = small_config(height=8, seed=7)
        controller = build_variant("ring-ps", config)
        labels = [controller.write(3, b"hot").old_path for _ in range(250)]
        assert path_uniformity_pvalue(labels, config.oram.num_leaves) > 0.01


class TestNoSlotReuse:
    def _reads_between_writes(self, controller, accesses=120):
        """For every slot line: reads since its last write must be <= 1."""
        config = controller.config
        slot_end = controller.layout.metadata_base
        with BusObserver(controller.memory) as observer:
            rng = DeterministicRNG(9)
            for i in range(accesses):
                controller.write(rng.randrange(60), b"v")
            events = list(observer.events)
        reads_since_write = defaultdict(int)
        worst = 0
        for event in events:
            if event.address >= slot_end:
                continue  # metadata lines are read/written freely
            if event.is_write:
                reads_since_write[event.address] = 0
            else:
                reads_since_write[event.address] += 1
                worst = max(worst, reads_since_write[event.address])
        return worst

    def test_baseline_reads_each_slot_at_most_once_per_rewrite(self):
        # An access reads a slot at most once between bucket rewrites;
        # EvictPath's bulk read of the bucket (immediately followed by its
        # rewrite) adds at most one more observation.
        controller = RingORAMController(small_config(height=6, seed=7))
        assert self._reads_between_writes(controller) <= 2

    def test_ps_ring_preserves_no_reuse(self):
        """The in-place write-back is a rewrite: access reads never repeat
        a slot (worst case 1, before the same-access rewrite)."""
        controller = build_variant("ring-ps", small_config(height=6, seed=7))
        assert self._reads_between_writes(controller) <= 1


class TestScheduleIsPublic:
    def test_evict_cadence_independent_of_data(self):
        """EvictPath fires every A *path accesses* regardless of addresses.

        (Stash hits skip the path access entirely — the paper's step-1
        semantics — so the workloads here avoid immediate re-touches.)
        """
        config = small_config(height=6, seed=7)
        alternating = RingORAMController(config)
        scan = RingORAMController(config)
        for i in range(30):
            alternating.write([3, 11, 17][i % 3], b"h")
            scan.write(i % 25, b"s")
        for controller in (alternating, scan):
            path_accesses = 30 - controller.stats.get("stash_hits")
            assert (
                controller.stats.get("evict_paths")
                == path_accesses // controller.params.a
            )

    def test_access_footprint_fixed(self):
        """Each non-evicting access touches the same number of lines."""
        controller = build_variant("ring-ps", small_config(height=6, seed=7))
        controller.write(0, b"warm")
        lengths = []
        with BusObserver(controller.memory) as observer:
            for i in range(1, 12):
                before = len(observer)
                controller.write(i, b"v")
                lengths.append(len(observer) - before)
        # Separate evicting accesses (every A-th) from plain ones.
        plain = [
            n for index, n in enumerate(lengths, start=2)
            if index % controller.params.a != 0
        ]
        assert len(set(plain)) <= 2  # reshuffles add an occasional bucket
