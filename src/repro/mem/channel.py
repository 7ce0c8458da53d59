"""Memory channel: a command/data bus shared by several banks.

Bank-level parallelism overlaps array access time, but the channel bus can
carry only one command (and one line transfer) at a time.  We model the bus
as a second busy-until watermark: a request first waits for the bus, then
for its bank, and a line transfer occupies the bus for a fixed burst time.

Like :class:`~repro.mem.bank.Bank`, the bus supports two scheduling
modes — the default watermark and an interval calendar
(:meth:`Channel.enable_overlap`) that lets a burst arriving during an
idle bus gap use that gap.  The modes agree only for monotone arrivals,
and bus arrivals are not monotone even for serial traffic: a line whose
bank finishes early reaches the bus after a line issued before it whose
bank was busy, so the watermark queues it behind that later burst while
the calendar fills the earlier gap.  The window scheduler enables
overlap so a younger access's fetch bursts can interleave with an older
access's still-queued write-back.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mem.bank import Bank, reserve_interval
from repro.mem.device import DeviceTimingModel
from repro.mem.request import MemoryRequest


class Channel:
    """One channel with ``num_banks`` banks behind a shared bus."""

    # Cycles the bus is held per line transfer (64B over a 8B-wide 400MHz
    # bus in burst mode — matches NVMain's default burst of 8 beats).
    BURST_CYCLES = 4

    def __init__(self, index: int, device: DeviceTimingModel, num_banks: int = 8):
        if num_banks < 1:
            raise ValueError(f"need at least one bank, got {num_banks}")
        self.index = index
        self.device = device
        self.banks: List[Bank] = [Bank(i, device) for i in range(num_banks)]
        self.bus_free_at = 0
        self.serviced = 0
        #: ``None`` = watermark mode; a flat boundary list = interval
        #: (overlap) mode.
        self.bus_intervals: Optional[List[int]] = None

    def enable_overlap(self) -> None:
        """Interval-schedule the bus and every bank (idempotent)."""
        if self.bus_intervals is None:
            self.bus_intervals = [0, self.bus_free_at] if self.bus_free_at else []
        for bank in self.banks:
            bank.enable_overlap()

    def bank_for(self, local_line: int) -> Bank:
        """Bank interleaving: channel-local line index modulo bank count."""
        return self.banks[local_line % len(self.banks)]

    def reserve_burst(self, earliest_cycle: int) -> int:
        """Occupy the data bus for one line burst; returns its completion."""
        if self.bus_intervals is None:
            start = earliest_cycle if earliest_cycle >= self.bus_free_at else self.bus_free_at
            self.bus_free_at = start + self.BURST_CYCLES
        else:
            start = reserve_interval(self.bus_intervals, earliest_cycle, self.BURST_CYCLES)
            if start + self.BURST_CYCLES > self.bus_free_at:
                self.bus_free_at = start + self.BURST_CYCLES
        self.serviced += 1
        return start + self.BURST_CYCLES

    def service(self, request: MemoryRequest, arrival_cycle: int, local_line: int) -> int:
        """Service one request; returns its completion cycle.

        ``local_line`` is the channel-local line index (global line divided
        by the channel count), so consecutive lines landing on this channel
        still stripe across all of its banks.  Commands issue on the
        (uncontended) command bus, so banks work in parallel; only the
        line-sized data burst serializes on the shared data bus.
        """
        bank = self.bank_for(local_line)
        bank_done = bank.service(arrival_cycle, request.access)
        # The data burst waits for both the bank and a free data bus slot.
        return self.reserve_burst(bank_done)

    def next_free_cycle(self) -> int:
        """Earliest cycle a new command could be issued."""
        return self.bus_free_at

    def reset(self) -> None:
        self.bus_free_at = 0
        self.serviced = 0
        if self.bus_intervals is not None:
            self.bus_intervals = []
        for bank in self.banks:
            bank.reset()
