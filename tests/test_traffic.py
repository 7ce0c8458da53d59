"""Unit tests for traffic and wear accounting."""

from repro.config import small_config
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, MemoryRequest, RequestKind
from repro.mem.traffic import TrafficMeter


def _req(address, access, kind=RequestKind.DATA_PATH):
    return MemoryRequest(address=address, access=access, kind=kind)


class TestTrafficBreakdown:
    def test_counts_by_kind(self):
        meter = TrafficMeter()
        meter.record(_req(0, Access.READ))
        meter.record(_req(64, Access.WRITE, RequestKind.PERSIST))
        meter.record(_req(128, Access.WRITE, RequestKind.POSMAP))
        assert meter.total_reads == 1
        assert meter.total_writes == 2
        assert meter.writes_of(RequestKind.PERSIST) == 1
        assert meter.writes_of(RequestKind.POSMAP) == 1
        assert meter.reads_of(RequestKind.PERSIST) == 0

    def test_byte_totals(self):
        meter = TrafficMeter()
        meter.record(_req(0, Access.READ))
        assert meter.read_bytes == 64

    def test_snapshot_keys(self):
        meter = TrafficMeter()
        meter.record(_req(0, Access.WRITE))
        snap = meter.snapshot()
        assert snap["writes.total"] == 1
        assert snap["writes.data_path"] == 1


class TestWear:
    def test_hotspot_detection(self):
        meter = TrafficMeter(track_wear=True)
        for _ in range(10):
            meter.record(_req(0, Access.WRITE))
        meter.record(_req(64, Access.WRITE))
        assert meter.max_line_writes() == 10
        assert meter.wear_imbalance() > 1.5

    def test_even_wear(self):
        meter = TrafficMeter(track_wear=True)
        for line in range(8):
            meter.record(_req(line * 64, Access.WRITE))
        assert meter.wear_imbalance() == 1.0

    def test_wear_untracked_by_default(self):
        meter = TrafficMeter()
        meter.record(_req(0, Access.WRITE))
        assert meter.max_line_writes() == 0

    def test_reset(self):
        meter = TrafficMeter(track_wear=True)
        meter.record(_req(0, Access.WRITE))
        meter.reset()
        assert meter.total_writes == 0
        assert meter.max_line_writes() == 0


class TestCellFlips:
    def test_reset_timing_drops_warm_up_flips(self):
        memory = NVMMainMemory(small_config().nvm)
        memory.issue(0, Access.WRITE, 0, data=b"\xff" * 64)
        assert memory.traffic.flip_rate == 1.0
        memory.reset_timing()
        assert memory.traffic.bits_written == 0
        assert memory.traffic.bits_flipped == 0
        # Rewriting the same content flips nothing; warm-up flips must
        # not leak into the post-reset rate.
        memory.issue(0, Access.WRITE, 0, data=b"\xff" * 64)
        assert memory.traffic.bits_written == 512
        assert memory.traffic.flip_rate == 0.0
