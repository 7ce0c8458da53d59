"""Tests for multi-program co-execution on shared NVM."""

import pytest

from repro.config import small_config
from repro.sim.multiprog import CoRunner


def _uniform_writes(controller, program_index, op_index):
    # Per-program deterministic stream so runs are reproducible.
    value = bytes([op_index % 256, program_index])
    controller.write((op_index * 7 + program_index) % 40, value)


class TestCoRunner:
    def test_programs_isolated_functionally(self):
        runner = CoRunner("ps", small_config(height=6, seed=9), programs=2)
        a, b = runner.controllers
        a.write(3, b"program-a")
        b.write(3, b"program-b")
        assert a.read(3).data.rstrip(b"\x00") == b"program-a"
        assert b.read(3).data.rstrip(b"\x00") == b"program-b"

    def test_interleaving_advances_all(self):
        runner = CoRunner("baseline", small_config(height=6, seed=9), programs=3)
        finals = runner.run_interleaved(10, _uniform_writes)
        assert len(finals) == 3
        assert all(final > 0 for final in finals)
        # Fair interleaving: completion times are within 2x of each other.
        assert max(finals) < 2 * min(finals)

    def test_contention_slows_programs_down(self):
        config = small_config(height=7, seed=9)
        solo = CoRunner("baseline", config, programs=1)
        solo_final = solo.run_interleaved(30, _uniform_writes)[0]
        duo = CoRunner("baseline", config, programs=2)
        duo_finals = duo.run_interleaved(30, _uniform_writes)
        # Two programs sharing one channel: each takes notably longer
        # than running alone (they roughly halve the bandwidth).
        assert min(duo_finals) > 1.3 * solo_final

    def test_more_channels_reduce_interference(self):
        def slowdown(channels):
            config = small_config(height=7, seed=9, channels=channels)
            solo = CoRunner("baseline", config, programs=1)
            solo_final = solo.run_interleaved(25, _uniform_writes)[0]
            duo = CoRunner("baseline", config, programs=2)
            duo_final = max(duo.run_interleaved(25, _uniform_writes))
            return duo_final / solo_final

        assert slowdown(4) < slowdown(1)

    def test_per_program_request_accounting(self):
        runner = CoRunner("baseline", small_config(height=6, seed=9), programs=2)
        runner.run_interleaved(5, _uniform_writes)
        stats = runner.per_program_requests()
        assert all(s["reads"] > 0 and s["writes"] > 0 for s in stats)

    def test_crash_recovery_per_program(self):
        runner = CoRunner("ps", small_config(height=6, seed=9), programs=2)
        a, b = runner.controllers
        a.write(1, b"alpha")
        b.write(1, b"beta")
        a.crash()
        assert a.recover()
        # A's crash must not disturb B (shared NVM, separate regions).
        assert a.read(1).data.rstrip(b"\x00") == b"alpha"
        assert b.read(1).data.rstrip(b"\x00") == b"beta"

    def test_recursive_runners_keep_their_data(self):
        # rcr-ps places its posmap tree's scratch lines and the intent log
        # past the flat layout; runners spaced by the flat layout overlap.
        runner = CoRunner("rcr-ps", small_config(height=6, seed=9), programs=3)

        def write_own(controller, program_index, op_index):
            controller.write(op_index, bytes([program_index, op_index]))

        runner.run_interleaved(40, write_own)
        for index, controller in enumerate(runner.controllers):
            for address in range(40):
                assert controller.read(address).data[:2] == bytes([index, address])

    def test_rejects_zero_programs(self):
        with pytest.raises(ValueError):
            CoRunner("ps", small_config(height=6), programs=0)


class TestOffsetMemoryAccounting:
    """Per-runner traffic accounting and address isolation of _OffsetMemory."""

    def _shared(self):
        from repro.config import PCM_TIMING
        from repro.mem.controller import NVMMainMemory

        return NVMMainMemory(
            PCM_TIMING, channels=1, banks_per_channel=8, line_bytes=64
        )

    def test_own_traffic_splits_per_view_shared_meter_totals(self):
        from repro.mem.request import Access
        from repro.sim.multiprog import _OffsetMemory

        shared = self._shared()
        a = _OffsetMemory(shared, 0)
        b = _OffsetMemory(shared, 1 << 20)
        for i in range(3):
            a.issue(i * 64, Access.READ, 0)
        a.issue(0, Access.WRITE, 0, data=b"\x01" * 64)
        for i in range(2):
            b.issue(i * 64, Access.WRITE, 0, data=b"\x02" * 64)
        # Per-runner meters see only their own requests...
        assert a.own_traffic.get("reads") == 3
        assert a.own_traffic.get("writes") == 1
        assert b.own_traffic.get("reads") == 0
        assert b.own_traffic.get("writes") == 2
        # ... while the shared meter (a.traffic IS shared.traffic) totals.
        assert a.traffic is shared.traffic
        assert b.traffic is shared.traffic
        assert shared.traffic.total_reads == 3
        assert shared.traffic.total_writes == 3

    def test_address_offset_isolation(self):
        from repro.sim.multiprog import _OffsetMemory

        shared = self._shared()
        a = _OffsetMemory(shared, 0)
        b = _OffsetMemory(shared, 1 << 20)
        a.store_line(0, b"A" * 64)
        b.store_line(0, b"B" * 64)
        # Same local address, distinct shared lines.
        assert a.load_line(0) == b"A" * 64
        assert b.load_line(0) == b"B" * 64
        assert shared.load_line(0) == b"A" * 64
        assert shared.load_line(1 << 20) == b"B" * 64

    def test_written_lines_rebased_to_local_space(self):
        from repro.sim.multiprog import _OffsetMemory

        shared = self._shared()
        offset = 1 << 20
        b = _OffsetMemory(shared, offset)
        b.store_line(128, b"B" * 64)
        local = b.written_lines(0, 4096)
        assert 128 in local
        # The shared view reports the same write at the shifted address.
        assert offset + 128 in shared.written_lines(offset, 4096)
        # And the other program's window is untouched.
        a = _OffsetMemory(shared, 0)
        assert a.written_lines(0, 4096) == []

    def test_corunner_own_traffic_isolated_under_contention(self):
        from repro.config import small_config
        from repro.sim.multiprog import CoRunner

        runner = CoRunner("baseline", small_config(height=6, seed=9), programs=2)
        # Drive only program 0; program 1 stays idle.
        runner.controllers[0].write(1, b"solo")
        stats = runner.per_program_requests()
        assert stats[0]["reads"] > 0
        assert stats[0]["writes"] > 0
        assert stats[1]["reads"] == 0
        assert stats[1]["writes"] == 0
        # The shared meter carries program 0's traffic.
        shared = runner.shared_memory.traffic
        assert shared.total_reads >= stats[0]["reads"]
        assert shared.total_writes >= stats[0]["writes"]
