"""Unit tests for the NVM device/bank/channel/controller timing model."""

import pytest

from repro.config import PCM_TIMING, STTRAM_TIMING
from repro.mem.channel import Channel
from repro.mem.controller import NVMMainMemory
from repro.mem.device import DeviceTimingModel
from repro.mem.request import Access, MemoryRequest, RequestKind


class TestDevice:
    def test_pcm_latencies(self):
        device = DeviceTimingModel(PCM_TIMING)
        assert device.service_cycles(Access.READ) == 49
        assert device.service_cycles(Access.WRITE) == 67

    def test_stt_writes_much_faster_than_pcm(self):
        pcm = DeviceTimingModel(PCM_TIMING)
        stt = DeviceTimingModel(STTRAM_TIMING)
        assert stt.service_cycles(Access.WRITE) < pcm.service_cycles(Access.WRITE) / 2

    def test_energy_split(self):
        device = DeviceTimingModel(PCM_TIMING)
        assert device.energy_pj(Access.WRITE) > device.energy_pj(Access.READ)


class TestBank:
    """Bank occupancy, observed through ``NVMMainMemory.issue``."""

    def test_serializes_back_to_back(self):
        memory = NVMMainMemory(PCM_TIMING)
        first = memory.issue(0, Access.READ, 0).complete_cycle
        second = memory.issue(0, Access.READ, 0).complete_cycle
        assert second >= first + 49

    def test_idle_bank_services_immediately(self):
        memory = NVMMainMemory(PCM_TIMING)
        request = memory.issue(0, Access.READ, 1000)
        assert request.issue_cycle == 1000
        assert request.complete_cycle == 1000 + 49 + Channel.BURST_CYCLES

    def test_reset(self):
        memory = NVMMainMemory(PCM_TIMING)
        idle = memory.issue(0, Access.WRITE, 0).complete_cycle
        memory.issue(0, Access.WRITE, 0)
        memory.reset_timing()
        assert memory.next_free_cycles() == [0]
        assert all(not bank for bank in memory.channels[0].bank_intervals)
        assert memory.issue(0, Access.WRITE, 0).complete_cycle == idle


class TestChannel:
    """Bank parallelism behind one data bus, through ``NVMMainMemory.issue``."""

    def test_different_banks_overlap(self):
        memory = NVMMainMemory(PCM_TIMING, banks_per_channel=8)
        done_a = memory.issue(0, Access.READ, 0).complete_cycle
        done_b = memory.issue(64, Access.READ, 0).complete_cycle
        # Second access uses another bank: only the burst serializes.
        assert done_b - done_a <= Channel.BURST_CYCLES

    def test_same_bank_serializes(self):
        memory = NVMMainMemory(PCM_TIMING, banks_per_channel=8)
        done_a = memory.issue(0, Access.READ, 0).complete_cycle
        done_b = memory.issue(8 * 64, Access.READ, 0).complete_cycle
        assert done_b >= done_a + 49

    def test_rejects_zero_banks(self):
        with pytest.raises(ValueError):
            NVMMainMemory(PCM_TIMING, banks_per_channel=0)


class TestNVMMainMemory:
    def test_functional_store_roundtrip(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.store_line(128, b"payload")
        assert memory.load_line(128) == b"payload"
        assert memory.load_line(64) is None

    def test_timed_access_updates_traffic_and_energy(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.issue(0, Access.READ, 0)
        memory.issue(64, Access.WRITE, 0, data=b"x")
        assert memory.traffic.total_reads == 1
        assert memory.traffic.total_writes == 1
        assert memory.energy_pj > 0
        assert memory.load_line(64) == b"x"

    @staticmethod
    def _busy(calendar):
        return sum(end - start for start, end in zip(calendar[::2], calendar[1::2]))

    def test_channel_interleaving_balances(self):
        memory = NVMMainMemory(PCM_TIMING, channels=4)
        for line in range(32):
            memory.issue(line * 64, Access.READ, 0)
        busy = [self._busy(c.bus_intervals) for c in memory.channels]
        assert busy == [8 * Channel.BURST_CYCLES] * 4

    def test_bank_striping_uses_all_banks_per_channel(self):
        memory = NVMMainMemory(PCM_TIMING, channels=2, banks_per_channel=4)
        for line in range(16):
            memory.issue(line * 64, Access.READ, 0)
        span = memory.device.service_cycles(Access.READ) + memory.device.min_gap_cycles()
        for channel in memory.channels:
            assert [self._busy(bank) for bank in channel.bank_intervals] == [2 * span] * 4

    def test_more_channels_finish_sooner(self):
        def finish_with(channels):
            memory = NVMMainMemory(PCM_TIMING, channels=channels)
            return memory.access_batch(
                [line * 64 for line in range(64)], Access.READ, 0
            )

        # Gains flatten once the shared dispatch stage dominates (the
        # calibrated Figure-7 behaviour), so 2->4 channels may only tie.
        assert finish_with(4) <= finish_with(2) < finish_with(1)

    def test_written_lines_range_filter(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.store_line(0, b"a")
        memory.store_line(640, b"b")
        memory.store_line(1280, b"c")
        assert memory.written_lines(600, 100) == [640]

    def test_snapshot_restore(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.store_line(0, b"before")
        snap = memory.snapshot_image()
        memory.store_line(0, b"after")
        memory.restore_image(snap)
        assert memory.load_line(0) == b"before"

    def test_reset_timing_preserves_image(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.issue(0, Access.WRITE, 0, data=b"kept")
        memory.reset_timing()
        assert memory.traffic.total_writes == 0
        assert memory.load_line(0) == b"kept"


class TestRequest:
    def test_latency(self):
        request = MemoryRequest(address=0, access=Access.READ)
        assert request.latency is None
        request.issue_cycle = 5
        request.complete_cycle = 60
        assert request.latency == 55

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            MemoryRequest(address=-1, access=Access.READ)

    def test_kind_labels(self):
        request = MemoryRequest(address=0, access=Access.WRITE, kind=RequestKind.PERSIST)
        assert request.kind.value == "persist"
