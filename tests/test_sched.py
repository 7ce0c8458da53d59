"""Window scheduler: lock-step equivalence, hazard ordering, calendars.

The :class:`repro.engine.sched.WindowScheduler` is a timing-only layer:
whatever the window depth, the logical machine (returned data, PosMap,
stash, NVM image) must be byte-identical to the serial pipeline, and the
hazard rules must keep conflicting accesses ordered.  The interval
calendar (:func:`repro.mem.bank.reserve_interval`) that makes the early
launches physically sound is checked against a brute-force free-cycle
model.
"""

import hashlib
import random

import pytest

from repro.config import small_config
from repro.core.variants import build_variant
from repro.engine.sched import WindowScheduler, wrap_controller
from repro.mem.bank import MAX_BOUNDARIES, reserve_interval
from repro.util.rng import DeterministicRNG


def _logical_digest(controller):
    """One hash over every piece of logical state the scheduler must not touch."""
    parts = [
        repr(sorted(controller.memory._image.items())),
        repr(sorted(controller.posmap.copy_state().items())),
        repr(sorted((e.address, e.path_id, e.data) for e in controller.stash.entries())),
    ]
    return hashlib.sha256("||".join(parts).encode()).hexdigest()


def _run_trace(
    variant,
    window,
    channels=2,
    accesses=120,
    seed=7,
    height=6,
):
    """Drive a controller through a mixed trace.

    Returns ``(digest, datas, cycles, stats)`` — the logical-state digest,
    every returned payload, the post-drain clock, and the stats snapshot.
    """
    config = small_config(height=height, channels=channels, seed=1)
    controller = build_variant(variant, config)
    sched = wrap_controller(controller, window)
    rng = DeterministicRNG(seed)
    space = config.oram.total_slots // 2
    datas = []
    for i in range(accesses):
        address = rng.randrange(space)
        if rng.randrange(2):
            result = sched.write(address, address.to_bytes(4, "little"))
        else:
            result = sched.read(address)
        datas.append(result.data)
    cycles = sched.drain() if window > 1 else controller.now
    return _logical_digest(controller), datas, cycles, controller.stats.snapshot()


class TestLockStepEquivalence:
    """Window N must be functionally indistinguishable from window 1."""

    @pytest.mark.parametrize("variant", ["ps", "baseline"])
    @pytest.mark.parametrize("window", [2, 4, 8])
    def test_logical_state_matches_serial(self, variant, window):
        serial_digest, serial_datas, serial_cycles, _ = _run_trace(variant, 1)
        digest, datas, cycles, _ = _run_trace(variant, window)
        assert datas == serial_datas
        assert digest == serial_digest
        # The window may only ever make the modeled time shorter.
        assert cycles <= serial_cycles

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_randomized_traces(self, seed):
        serial = _run_trace("ps", 1, seed=seed)
        windowed = _run_trace("ps", 4, seed=seed)
        assert windowed[0] == serial[0]
        assert windowed[1] == serial[1]

    def test_recursive_variant(self):
        serial = _run_trace("rcr-ps", 1, accesses=60)
        windowed = _run_trace("rcr-ps", 4, accesses=60)
        assert windowed[0] == serial[0]
        assert windowed[1] == serial[1]

    def test_multichannel_overlap_happens(self):
        config = small_config(height=6, channels=2, seed=1)
        controller = build_variant("ps", config)
        sched = wrap_controller(controller, 4)
        rng = DeterministicRNG(5)
        for _ in range(150):
            sched.read(rng.randrange(config.oram.total_slots // 2))
        sched.drain()
        snap = controller.stats.snapshot()
        assert snap["sched_overlapped"] > 0


class TestHazardOrdering:
    def _scheduler(self, window=4):
        config = small_config(height=6, channels=2, seed=1)
        controller = build_variant("ps", config)
        return config, controller, WindowScheduler(controller, window)

    def test_same_address_serializes(self):
        config, controller, sched = self._scheduler()
        first = sched.read(1)
        second = sched.read(1)
        assert second.start_cycle >= first.finish_cycle
        assert controller.stats.snapshot()["sched_hazard_same_address"] >= 1

    @staticmethod
    def _colliding_pair(config, controller):
        """Two addresses currently mapped to the same leaf path."""
        by_path = {}
        for address in range(controller.oram_config.num_logical_blocks):
            path = controller._position_of(address)
            if path in by_path:
                return by_path[path], address
            by_path[path] = address
        pytest.fail("tree too small to collide paths")

    def test_no_release_vector_serializes_whole_path(self):
        # A stash-hit read never writes back, so it reports no per-level
        # release vector: a younger access on an overlapping path falls
        # back to whole-path serialization behind the hit's completion.
        config = small_config(height=6, channels=2, seed=1)
        controller = build_variant("ps", config)
        rng = DeterministicRNG(5)
        space = config.oram.total_slots // 2
        resident = None
        for _ in range(500):
            controller.write(rng.randrange(space), b"x")
            live = [e for e in controller.stash.entries() if not e.is_backup]
            if live:
                resident = live[0].block
                break
        assert resident is not None, "no block stayed stash-resident"
        other = next(
            address for address in range(space)
            if address != resident.address
            and controller._position_of(address) == resident.path_id
        )
        sched = WindowScheduler(controller, 4)
        before = controller.stats.snapshot().get("sched_hazard_path_overlap", 0)
        first = sched.read(resident.address)
        second = sched.read(other)
        assert first.stash_hit
        assert not first.writeback_level_release
        assert second.start_cycle >= first.finish_cycle
        snap = controller.stats.snapshot()
        assert snap["sched_hazard_path_overlap"] > before
        assert snap.get("sched_hazard_segment", 0) == 0

    def test_overlapping_paths_floor_shared_segments(self):
        config, controller, sched = self._scheduler()
        pair = self._colliding_pair(config, controller)
        first = sched.read(pair[0])
        second = sched.read(pair[1])
        # Same leaf: every level below the buffered top is shared, so the
        # younger fetch of each such level must wait for the older
        # write-back round that released it — but the access itself may
        # start earlier than the older access's full completion.
        top = controller.tree.buffered_levels
        assert second.fetch_level_spans, "segment mode must report fetch spans"
        assert first.writeback_level_release, "ps must report per-level release"
        for level in range(top, config.oram.height + 1):
            assert (
                second.fetch_level_spans[level][0]
                >= first.writeback_level_release[level]
            )
        snap = controller.stats.snapshot()
        assert snap["sched_hazard_segment"] >= 1
        assert snap.get("sched_hazard_path_overlap", 0) == 0

    def test_window_retirement_is_a_floor(self):
        config, controller, sched = self._scheduler(window=2)
        rng = DeterministicRNG(9)
        space = config.oram.total_slots // 2
        results = [sched.read(rng.randrange(space)) for _ in range(8)]
        # With a window of 2, access i may not start before access i-2
        # finished — retirement turns the oldest in-flight access into a
        # hard floor for everything younger.
        for older, younger in zip(results, results[2:]):
            assert younger.start_cycle >= older.finish_cycle

    def test_drain_reaches_horizon(self):
        config, controller, sched = self._scheduler()
        rng = DeterministicRNG(9)
        horizon = 0
        for _ in range(10):
            result = sched.read(rng.randrange(config.oram.total_slots // 2))
            horizon = max(horizon, result.finish_cycle)
        assert sched.drain() == horizon
        assert controller.now == horizon

    def test_crash_recover_with_window(self):
        config, controller, sched = self._scheduler()
        rng = DeterministicRNG(21)
        space = config.oram.total_slots // 2
        written = {}
        for _ in range(40):
            address = rng.randrange(space)
            payload = address.to_bytes(4, "little")
            sched.write(address, payload)
            written[address] = payload
        sched.crash()
        assert sched.recover()
        for address, payload in written.items():
            assert sched.read(address).data[: len(payload)] == payload

    def test_window_one_is_passthrough(self):
        config = small_config(height=6, seed=1)
        controller = build_variant("ps", config)
        assert wrap_controller(controller, 1) is controller

    def test_rejects_bad_window(self):
        config = small_config(height=6, seed=1)
        controller = build_variant("ps", config)
        with pytest.raises(ValueError):
            WindowScheduler(controller, 0)


class TestSegmentDifferential:
    """Segment floors and posmap lookahead on seeded traces."""

    def test_segment_never_starts_a_fetch_too_early(self):
        """Per-level safety: wherever two accesses overlap in time, the
        younger's fetch of every shared bucket segment arrives at or
        after the older write-back round that released that segment."""
        config = small_config(height=6, channels=2, seed=1)
        controller = build_variant("ps", config)
        sched = wrap_controller(controller, 4)
        rng = DeterministicRNG(13)
        space = config.oram.total_slots // 2
        results = [sched.read(rng.randrange(space)) for _ in range(80)]
        sched.drain()
        top = controller.tree.buffered_levels
        height = config.oram.height
        checked = 0
        for i, younger in enumerate(results):
            if not younger.fetch_level_spans:
                continue  # stash hit: no fetch
            for older in results[:i]:
                if younger.start_cycle >= older.finish_cycle:
                    continue  # no time overlap: serial ordering holds
                if not older.writeback_level_release:
                    continue  # scheduler serialized fully behind it
                a, b = older.old_path, younger.old_path
                shared = height if a == b else height - (a ^ b).bit_length()
                for level in range(top, shared + 1):
                    assert (
                        younger.fetch_level_spans[level][0]
                        >= older.writeback_level_release[level]
                    )
                    checked += 1
        assert checked > 0, "trace produced no overlapped conflicting pairs"

    @pytest.mark.parametrize("seed", [13, 29])
    def test_segment_strictly_reduces_whole_path_serialization(self, seed):
        serial = _run_trace("ps", 1, seed=seed)
        windowed = _run_trace("ps", 4, seed=seed)
        assert windowed[0] == serial[0]
        assert windowed[1] == serial[1]
        # Conflicting in-flight pairs proceed under segment floors far
        # more often than they fall back to whole-path serialization
        # (only an older access without a release vector — a stash hit —
        # still serializes the younger one whole).
        snap = windowed[3]
        assert snap.get("sched_hazard_path_overlap", 0) < snap["sched_hazard_segment"]
        assert windowed[2] <= serial[2]

    def test_lookahead_counts_hits_and_never_slower(self):
        serial = _run_trace("ps", 1, seed=13)
        windowed = _run_trace("ps", 4, seed=13)
        assert windowed[0] == serial[0]
        assert windowed[1] == serial[1]
        assert windowed[3]["sched_lookahead_hits"] > 0
        assert windowed[2] <= serial[2]


class TestPeekPath:
    """_peek_path must stay narrow: expected misses return None, real
    faults in the position machinery propagate."""

    def _scheduler(self):
        config = small_config(height=6, seed=1)
        controller = build_variant("ps", config)
        return config, controller, WindowScheduler(controller, 4)

    def test_real_position_fault_propagates(self):
        config, controller, sched = self._scheduler()

        def boom(address):
            raise RuntimeError("posmap wiring broke")

        controller._position_of = boom
        with pytest.raises(RuntimeError, match="posmap wiring broke"):
            sched.read(1)

    def test_out_of_range_address_raises_the_proper_error(self):
        from repro.errors import InvalidAddressError

        config, controller, sched = self._scheduler()
        bad = controller.oram_config.num_logical_blocks + 5
        with pytest.raises(InvalidAddressError):
            sched.read(bad)

    def test_plain_hierarchy_at_depth_has_no_peek(self):
        config = small_config(height=6, seed=1)
        controller = build_variant("plain", config)
        sched = WindowScheduler(controller, 4)
        payload = b"\x07" * 8
        sched.write(3, payload)
        assert sched.read(3).data[: len(payload)] == payload


class TestReserveInterval:
    def test_tail_append_and_extend(self):
        calendar = []
        assert reserve_interval(calendar, 10, 4) == 10
        assert calendar == [10, 14]
        # Touching the tail extends the busy window in place.
        assert reserve_interval(calendar, 14, 4) == 14
        assert calendar == [10, 18]
        # A gap after the tail opens a new interval.
        assert reserve_interval(calendar, 30, 2) == 30
        assert calendar == [10, 18, 30, 32]

    def test_gap_fill_and_coalesce(self):
        calendar = [0, 10, 20, 30]
        # Fits in the idle gap [10, 20) right at its start, bridging both
        # neighbours into one interval when the edges touch.
        assert reserve_interval(calendar, 4, 10) == 10
        assert calendar == [0, 30]

    def test_arrival_inside_last_window_extends_it(self):
        calendar = [0, 10, 20, 30]
        # At or after the start of the last busy window: queue at its end.
        assert reserve_interval(calendar, 25, 4) == 30
        assert calendar == [0, 10, 20, 34]
        assert reserve_interval(calendar, 20, 2) == 34
        assert calendar == [0, 10, 20, 36]
        # An arrival inside an earlier window still takes the gap-fill search.
        assert reserve_interval(calendar, 5, 4) == 10
        assert calendar == [0, 14, 20, 36]

    def test_arrival_inside_busy_interval(self):
        calendar = [0, 10, 20, 30]
        assert reserve_interval(calendar, 5, 4) == 10
        assert calendar == [0, 14, 20, 30]

    def test_walks_past_too_small_gaps(self):
        calendar = [0, 10, 12, 16, 18, 30]
        # Gaps [10,12) and [16,18) are too small for a span of 4.
        assert reserve_interval(calendar, 1, 4) == 30
        assert calendar == [0, 10, 12, 16, 18, 34]

    def test_pruning_caps_calendar_length(self):
        calendar = []
        for i in range(3 * MAX_BOUNDARIES):
            reserve_interval(calendar, 10 * i, 4)
        assert len(calendar) <= MAX_BOUNDARIES

    def test_matches_brute_force_free_cycle_model(self):
        rng = random.Random(1234)
        for _ in range(40):
            calendar, busy = [], set()
            for _ in range(50):
                arrival = rng.randrange(0, 150)
                span = rng.randrange(1, 8)
                start = reserve_interval(calendar, arrival, span)
                expected = arrival
                while any(c in busy for c in range(expected, expected + span)):
                    expected += 1
                assert start == expected
                busy.update(range(start, start + span))
                # Boundaries stay strictly increasing (disjoint, coalesced).
                assert all(a < b for a, b in zip(calendar, calendar[1:]))
