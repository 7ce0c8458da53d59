"""The memory timing model against independent references.

:class:`repro.mem.controller.NVMMainMemory` times every line through
three busy-interval calendars (front-end dispatch, the line's bank, the
line's channel bus).  Two checks keep that arithmetic honest:

* a differential test against a brute-force per-cycle model of the three
  stages, over random bursts with non-monotone arrivals;
* a physical-occupancy check on real ORAM runs, serial and windowed,
  long enough that calendars are pruned: no two line bursts on one
  channel's bus overlap, and no burst starts before its request was
  issued.
"""

import random
from collections import defaultdict

import pytest

from repro.config import PCM_TIMING, small_config
from repro.core.variants import build_variant
from repro.engine.sched import wrap_controller
from repro.mem.bank import MAX_BOUNDARIES
from repro.mem.channel import Channel
from repro.mem.controller import NVMMainMemory
from repro.mem.device import DeviceTimingModel
from repro.mem.request import Access
from repro.util.rng import DeterministicRNG


def _take(busy, t, span):
    """First ``t' >= t`` with ``[t', t' + span)`` free in ``busy``; reserve it."""
    while any(c in busy for c in range(t, t + span)):
        t += 1
    busy.update(range(t, t + span))
    return t


def brute_force_completions(ops, channels, banks):
    """Per-line completion cycles of ``ops`` under a per-cycle model."""
    device = DeviceTimingModel(PCM_TIMING)
    dispatch = set()
    bank_busy = defaultdict(set)
    bus_busy = defaultdict(set)
    out = []
    for addresses, access, arrival in ops:
        service = device.service_cycles(access)
        span = service + device.min_gap_cycles()
        for address in addresses:
            dispatched = _take(dispatch, arrival, NVMMainMemory.DISPATCH_CYCLES)
            line = address // 64
            channel = line % channels
            bank = (line // channels) % banks
            bank_start = _take(bank_busy[channel, bank], dispatched, span)
            burst = _take(bus_busy[channel], bank_start + service, Channel.BURST_CYCLES)
            out.append(burst + Channel.BURST_CYCLES)
    return out


def _calendars(memory):
    cals = [list(memory._dispatch_intervals)]
    for channel in memory.channels:
        cals.append(list(channel.bus_intervals))
        cals.extend(list(bank) for bank in channel.bank_intervals)
    return cals


class TestDifferential:
    @pytest.mark.parametrize("channels,banks", [(1, 1), (1, 8), (2, 2), (4, 8)])
    def test_matches_brute_force_per_line(self, channels, banks):
        rng = random.Random(channels * 100 + banks)
        for _ in range(25):
            ops, lines = [], 0
            # At most MAX_INTERVALS lines per memory: every line reserves
            # one dispatch interval, so no calendar ever needs pruning (a
            # pruned calendar is conservative, not exact).
            while True:
                n = rng.randrange(1, 6)
                if lines + n > MAX_BOUNDARIES // 2:
                    break
                lines += n
                addresses = [rng.randrange(64) * 64 for _ in range(n)]
                access = Access.WRITE if rng.randrange(2) else Access.READ
                ops.append((addresses, access, rng.randrange(0, 400)))
            expected = brute_force_completions(ops, channels, banks)
            observed = NVMMainMemory(PCM_TIMING, channels=channels, banks_per_channel=banks)
            plain = NVMMainMemory(PCM_TIMING, channels=channels, banks_per_channel=banks)
            completions = []
            observed.request_observer = (
                lambda _addr, request: completions.append(request.complete_cycle)
            )
            finishes = []
            for addresses, access, arrival in ops:
                if len(addresses) == 1 and rng.randrange(2):
                    request = observed.issue(addresses[0], access, arrival)
                    finishes.append(request.complete_cycle)
                    plain.issue(addresses[0], access, arrival)
                else:
                    finish = observed.issue_path(addresses, access, arrival)
                    assert plain.issue_path(addresses, access, arrival) == finish
                    finishes.append(finish)
            assert completions == expected
            # issue_path returns the burst's last completion.
            position = 0
            for (addresses, _, arrival), finish in zip(ops, finishes):
                burst = expected[position:position + len(addresses)]
                position += len(addresses)
                assert finish == max([arrival] + burst)
            assert _calendars(plain) == _calendars(observed)
            assert plain.next_free_cycles() == observed.next_free_cycles()


def _bus_occupancy_run(variant, window, accesses):
    """Drive a run; return per-channel bursts and the longest calendar seen."""
    config = small_config(height=6, channels=2, seed=3)
    controller = build_variant(variant, config)
    memory = controller.memory
    bursts = defaultdict(list)
    longest = [0]

    def observe(_address, request):
        line = request.address // memory.line_bytes
        complete = request.complete_cycle
        bursts[line % len(memory.channels)].append(
            (complete - Channel.BURST_CYCLES, complete, request.issue_cycle)
        )
        longest[0] = max(longest[0], *(len(c) for c in _calendars(memory)))

    memory.request_observer = observe
    sched = wrap_controller(controller, window)
    rng = DeterministicRNG(window)
    space = config.oram.total_slots // 2
    for _ in range(accesses):
        address = rng.randrange(space)
        if rng.randrange(2):
            sched.write(address, address.to_bytes(4, "little"))
        else:
            sched.read(address)
    return bursts, longest[0]


class TestBusOccupancy:
    @pytest.mark.parametrize("variant", ["ps", "rcr-ps"])
    @pytest.mark.parametrize("window", [1, 4, 16])
    def test_bursts_disjoint_and_after_issue(self, variant, window):
        bursts, longest = _bus_occupancy_run(variant, window, 120)
        # Some calendar reached the cap, so later reservations pruned it.
        assert longest == MAX_BOUNDARIES
        for channel_bursts in bursts.values():
            for start, _end, issued in channel_bursts:
                assert start >= issued
            ordered = sorted(channel_bursts)
            for (_, end, _), (start, _, _) in zip(ordered, ordered[1:]):
                assert start >= end
