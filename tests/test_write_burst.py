"""The batched write-back round against its per-line reference.

A drainer round moves as one burst: the WPQs take one batched push per
queue, ``NVMMainMemory.issue_path`` does the burst's cell flips, image
update and ``line_observer`` call after its timing loop, and the
integrity domain re-MACs the burst's lines in one pass.  Each test here
drives the batched form and the per-line form on fresh twins and asserts
they leave identical state.
"""

import pytest

from repro.config import PCM_TIMING, WPQConfig, small_config
from repro.core.drainer import Drainer
from repro.core.variants import build_variant
from repro.errors import PersistenceError, WPQOverflowError
from repro.integrity.buckets import BucketIntegrityTree
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, RequestKind
from repro.mem.wpq import WritePendingQueue
from repro.oram.layout import TreeRegion
from repro.util.rng import DeterministicRNG


def _memory(observed):
    memory = NVMMainMemory(PCM_TIMING, channels=2, banks_per_channel=2)
    memory.line_observer = lambda addresses: observed.extend(addresses)
    return memory


def _state(memory):
    return {
        "image": memory.snapshot_image(),
        "bits_flipped": memory.traffic.bits_flipped,
        "bits_written": memory.traffic.bits_written,
        "energy_pj": memory.energy_pj,
        "writes": dict(memory.traffic.writes),
        "dispatch": list(memory._dispatch_intervals),
        "banks": [[list(cal) for cal in ch.bank_intervals] for ch in memory.channels],
        "buses": [list(ch.bus_intervals) for ch in memory.channels],
    }


#: Pre-burst image: line address -> content, covering an absent line
#: (not listed), an empty line, a shorter, an equal and a longer one.
_PRELOAD = {
    64: bytes(range(8)),           # shorter than the new line
    128: bytes([0xA5]) * 16,       # same length
    192: bytes([0x3C]) * 40,       # longer than the new line
    256: b"",                      # stored empty (reads as absent)
}


def _burst_case(addresses, datas):
    """Run one burst both ways; return (batched, looped) states + finishes."""
    results = []
    for batched in (True, False):
        observed = []
        memory = _memory(observed)
        for address, content in _PRELOAD.items():
            memory._image[address // memory.line_bytes] = content
        if batched:
            finish = memory.issue_path(
                addresses, Access.WRITE, 100, RequestKind.DATA_PATH, datas=datas
            )
        else:
            finish = max(
                memory.issue(
                    address, Access.WRITE, 100, RequestKind.DATA_PATH, data=data
                ).complete_cycle
                for address, data in zip(addresses, datas)
            )
        results.append((_state(memory), finish, observed))
    return results


class TestBurstEquivalence:
    @pytest.mark.parametrize(
        "addresses, datas",
        [
            # Fresh lines only: the one big-int XOR/popcount.
            ([0, 320, 384, 448], [bytes([i]) * 16 for i in range(1, 5)]),
            # A line repeated within the burst: per-line fallback.
            ([0, 320, 0, 384], [b"\x01" * 16, b"\x02" * 16, b"\xff" * 16, b"\x04" * 16]),
            # Old content absent, empty, shorter, equal and longer.
            ([0, 64, 128, 192, 256], [bytes([0x5A]) * 16] * 5),
            # Same lengths everywhere, old lines present: the fast path.
            ([128, 128 + 512], [bytes([0xC3]) * 16, bytes([0x0F]) * 16]),
            # Timing-only (None) entries mixed with data.
            ([0, 64, 128, 192], [None, b"\x11" * 16, None, b"\x22" * 16]),
            ([0, 64], [None, None]),
        ],
    )
    def test_issue_path_matches_per_line_issue(self, addresses, datas):
        (batched, finish_b, seen_b), (looped, finish_l, seen_l) = _burst_case(
            addresses, datas
        )
        assert batched == looped
        assert finish_b == finish_l
        # One observer call per burst carries the same written lines, in
        # order, as the per-line calls did one at a time.
        assert seen_b == seen_l == [
            a for a, d in zip(addresses, datas) if d is not None
        ]

    def test_store_line_reports_one_address(self):
        observed = []
        memory = _memory(observed)
        memory.store_line(640, b"x")
        assert observed == [640]


class TestBucketTreeBatch:
    REGION = TreeRegion(base=4096, height=3, z=4, line_bytes=64)

    def _pair(self):
        trees = []
        for _ in range(2):
            memory = NVMMainMemory(PCM_TIMING)
            trees.append((BucketIntegrityTree(memory, self.REGION), memory))
        return trees

    def test_update_lines_matches_update_line(self):
        (batched, mem_b), (looped, mem_l) = self._pair()
        base = self.REGION.base
        addresses = [base + 64 * i for i in (0, 5, 9, 5, 30, 59)]
        for memory in (mem_b, mem_l):
            for index, address in enumerate(addresses):
                memory.store_line(address, bytes([index + 1]) * 24)
        batched.update_lines(addresses)
        for address in addresses:
            looped.update_line(address)
        assert batched._macs == looped._macs
        assert batched._dirty == looped._dirty
        assert batched.updates == looped.updates == len(addresses)
        assert batched.root == looped.root == looped.recompute_root()

    def test_update_lines_rejects_address_outside_region(self):
        (tree, _), _ = self._pair()
        inside = self.REGION.base
        outside = self.REGION.base + self.REGION.size_bytes
        with pytest.raises(ValueError, match="outside bucket-tree region"):
            tree.update_lines([inside, outside])
        with pytest.raises(ValueError):
            tree.update_lines([self.REGION.base - 64])


class TestBatchedPush:
    def test_overflow_raises_and_queues_nothing(self):
        wpq = WritePendingQueue("q", 3)
        wpq.begin_round()
        wpq.push_batch([0], [b"a"])
        with pytest.raises(WPQOverflowError):
            wpq.push_batch([64, 128, 192], [b"b", b"c", b"d"])
        assert wpq.occupancy == 1
        assert wpq.pushed_total == 1
        wpq.end_round()
        assert wpq.drain() == ([0], [b"a"])

    def test_push_outside_round_raises(self):
        wpq = WritePendingQueue("q", 4)
        with pytest.raises(PersistenceError):
            wpq.push_batch([0, 64], [b"a", b"b"])
        with pytest.raises(PersistenceError):
            wpq.push_batch([], [])
        assert wpq.occupancy == 0

    def test_drains_in_per_entry_fifo_order(self):
        wpq = WritePendingQueue("q", 8)
        wpq.begin_round()
        wpq.push_batch([0, 64], [b"a", b"b"])
        wpq.push_batch([128], [b"c"])
        wpq.end_round()
        wpq.begin_round()
        wpq.push_batch([192, 256], [b"open-1", b"open-2"])
        # The closed round drains in push order; the open round stays.
        assert wpq.drain() == ([0, 64, 128], [b"a", b"b", b"c"])
        assert wpq.occupancy == 2
        wpq.end_round()
        assert wpq.drain() == ([192, 256], [b"open-1", b"open-2"])
        assert wpq.drained_total == wpq.pushed_total == 5

    def test_crash_discards_only_the_open_round(self):
        wpq = WritePendingQueue("q", 8)
        wpq.begin_round()
        wpq.push_batch([0, 64], [b"kept-1", b"kept-2"])
        wpq.end_round()
        wpq.begin_round()
        wpq.push_batch([128], [b"lost"])
        assert wpq.crash() == ([0, 64], [b"kept-1", b"kept-2"])
        assert wpq.discarded_total == 1
        assert wpq.occupancy == 0


class TestRoundCounters:
    """A round that pushes nothing into a queue must not register that
    queue's counter: a zero-valued ``blocks_pushed`` or
    ``entries_pushed`` would appear in every stats snapshot, and digest."""

    def _drainer(self):
        memory = NVMMainMemory(PCM_TIMING)
        return Drainer(memory, 8, 8, apply_posmap_entry=lambda a, p: 0)

    def test_padding_only_round_snapshot(self):
        drainer = self._drainer()
        drainer.start()
        drainer.push_blocks([], [])
        drainer.push_posmap_entries([4096, 4160], [(-1, 0), (-1, 0)])
        drainer.end()
        drainer.flush(0)
        # The snapshot the per-entry drainer left for the same round (one
        # push_posmap_entry per padding entry, no push_block), in order.
        assert list(drainer.stats.snapshot().items()) == [
            ("rounds_started", 1),
            ("entries_pushed", 2),
            ("rounds_committed", 1),
        ]

    def test_data_round_without_entries_snapshot(self):
        drainer = self._drainer()
        drainer.start()
        drainer.push_blocks([0, 64], [b"a", b"b"])
        drainer.push_posmap_entries([], [])
        drainer.end()
        drainer.flush(0)
        assert list(drainer.stats.snapshot().items()) == [
            ("rounds_started", 1),
            ("blocks_pushed", 2),
            ("rounds_committed", 1),
        ]

    @pytest.mark.parametrize(
        "variant, wpq, expected",
        [
            # 4-entry WPQs split every path into ordered rounds.
            ("naive-ps", WPQConfig(data_entries=4, posmap_entries=4), [
                ("rounds_started", 60), ("blocks_pushed", 240),
                ("entries_pushed", 240), ("rounds_committed", 60),
            ]),
            # The recursive flavour never pushes a flat PosMap entry.
            ("rcr-ps", WPQConfig(), [
                ("rounds_started", 12), ("blocks_pushed", 240),
                ("rounds_committed", 12),
            ]),
            ("ps", WPQConfig(), [
                ("rounds_started", 12), ("blocks_pushed", 240),
                ("entries_pushed", 12), ("rounds_committed", 12),
            ]),
        ],
    )
    def test_variant_drainer_snapshots(self, variant, wpq, expected):
        """Drainer snapshots captured from the per-entry drainer with the
        same drive (12 reads, height 4, seed 3)."""
        controller = build_variant(variant, small_config(height=4, seed=3, wpq=wpq))
        rng = DeterministicRNG(3)
        for _ in range(12):
            controller.read(rng.randrange(24))
        assert list(controller.drainer.stats.snapshot().items()) == expected
