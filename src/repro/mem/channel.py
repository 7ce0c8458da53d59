"""Memory channel: a command/data bus shared by several banks.

Bank-level parallelism overlaps array access time, but the channel's data
bus carries one line transfer at a time.  A channel holds the timing
state of both: one busy-interval calendar
(:func:`repro.mem.bank.reserve_interval`) per bank and one for the bus.
A line's burst waits for its bank, then takes the first idle bus slot at
or after that.  Bus arrivals follow bank-completion order, not issue order —
a line whose bank finishes early uses the bus gap before a line issued
ahead of it whose bank was busy.
"""

from __future__ import annotations

from typing import List


class Channel:
    """One channel with ``num_banks`` banks behind a shared bus."""

    # Cycles the bus is held per line transfer (64B over a 8B-wide 400MHz
    # bus in burst mode — matches NVMain's default burst of 8 beats).
    BURST_CYCLES = 4

    def __init__(self, index: int, num_banks: int = 8):
        if num_banks < 1:
            raise ValueError(f"need at least one bank, got {num_banks}")
        self.index = index
        #: Busy-interval calendars: one per bank, one for the data bus.
        self.bank_intervals: List[List[int]] = [[] for _ in range(num_banks)]
        self.bus_intervals: List[int] = []

    def reset(self) -> None:
        self.bank_intervals = [[] for _ in self.bank_intervals]
        self.bus_intervals = []
