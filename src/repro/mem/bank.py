"""Bank state: tracks when a bank next becomes free.

A bank services one request at a time.  The model keeps a single
``busy_until`` watermark per bank; a request arriving earlier waits, and the
bank then stays occupied for the device's service time plus the
command-to-command gap.

Two scheduling modes share the same interface:

* **watermark** (default) — one ``busy_until`` cursor; a request is
  serviced no earlier than the end of the *last-scheduled* request, even
  when it arrives while the bank is genuinely idle.
* **interval** (:meth:`enable_overlap`) — a sorted busy-interval
  calendar; a request arriving during an idle gap is serviced in that
  gap.

For one bank the two modes agree whenever arrivals never decrease across
calls (a monotone arrival can never land before the watermark).  That
does not make them agree on serial traffic as a whole: the channel bus
behind the banks sees bursts in bank-completion order, not call order
(see :mod:`repro.mem.channel`), so enabling overlap changes serial
timing too.  Only the window scheduler enables it, which is why
window-1 timing is unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

from repro.mem.device import DeviceTimingModel
from repro.mem.request import Access

#: Busy-interval calendars are pruned to this many intervals; the oldest
#: two intervals merge (treating the gap between them as busy), which is
#: conservative — it can only delay a request, never accelerate one.
MAX_INTERVALS = 32

#: A calendar is a *flat* sorted list of interval boundaries, so the
#: length cap in boundary terms is twice the interval cap.
MAX_BOUNDARIES = 2 * MAX_INTERVALS


def reserve_interval(calendar: List[int], arrival: int, span: int) -> int:
    """Reserve ``span`` cycles at the earliest idle gap at/after ``arrival``.

    ``calendar`` is a flat, strictly-increasing boundary list
    ``[s0, e0, s1, e1, ...]`` of disjoint, non-adjacent busy windows
    ``[s, e)`` — flat so the lookup is a C-speed :func:`bisect_right`
    instead of a Python scan.  The chosen window is inserted (coalescing
    with neighbours) and its start returned.
    """
    n = len(calendar)
    # Fast path: arrival at/after the calendar tail (the overwhelmingly
    # common in-order case) appends in O(1) instead of searching.
    if n == 0 or arrival > calendar[-1]:
        calendar.append(arrival)
        calendar.append(arrival + span)
        if n + 2 > MAX_BOUNDARIES:
            del calendar[1:3]
        return arrival
    if arrival == calendar[-1]:
        calendar[-1] = arrival + span
        return arrival
    # boundary index: even = arrival sits in the idle gap before interval
    # index // 2; odd = arrival sits inside interval (index - 1) // 2.
    index = bisect_right(calendar, arrival)
    if index & 1:
        t = calendar[index]  # busy: next idle point is that interval's end
        index += 1           # index of the next interval-start boundary
    else:
        t = arrival
    # Walk forward until the gap [t, t + span) clears the next interval.
    while index < n and calendar[index] < t + span:
        t = calendar[index + 1]
        index += 2
    end = t + span
    # Insert [t, end) at boundary position ``index``, coalescing where the
    # edges touch (calendar[index - 1] is the previous interval's end or
    # absent; calendar[index] is the next interval's start or absent).
    touches_previous = index > 0 and calendar[index - 1] == t
    touches_next = index < n and calendar[index] == end
    if touches_previous:
        if touches_next:
            del calendar[index - 1:index + 1]
        else:
            calendar[index - 1] = end
    elif touches_next:
        calendar[index] = t
    else:
        calendar[index:index] = (t, end)
        if len(calendar) > MAX_BOUNDARIES:
            del calendar[1:3]
    return t


class Bank:
    """One NVM bank with a busy-until watermark (or interval calendar)."""

    __slots__ = ("index", "_device", "busy_until", "serviced", "intervals")

    def __init__(self, index: int, device: DeviceTimingModel):
        self.index = index
        self._device = device
        self.busy_until = 0
        self.serviced = 0
        #: ``None`` = watermark mode; a flat boundary list = interval
        #: (overlap) mode.
        self.intervals: Optional[List[int]] = None

    def enable_overlap(self) -> None:
        """Switch to interval scheduling (idempotent; keeps current state)."""
        if self.intervals is None:
            self.intervals = [0, self.busy_until] if self.busy_until else []

    def service_span(self, arrival_cycle: int, service_cycles: int, gap_cycles: int) -> int:
        """Occupy the bank for ``service + gap`` cycles; returns completion.

        The hoisted-timing variant of :meth:`service` used by the batched
        path issue, where the device timings are looked up once per burst.
        """
        span = service_cycles + gap_cycles
        if self.intervals is None:
            start = arrival_cycle if arrival_cycle >= self.busy_until else self.busy_until
            self.busy_until = start + span
        else:
            start = reserve_interval(self.intervals, arrival_cycle, span)
            if start + span > self.busy_until:
                self.busy_until = start + span
        self.serviced += 1
        return start + service_cycles

    def service(self, arrival_cycle: int, access: Access) -> int:
        """Service a request arriving at ``arrival_cycle``.

        Returns the cycle at which the request completes (data returned for a
        read, data accepted into the array for a write).  Advances the bank's
        busy watermark.
        """
        return self.service_span(
            arrival_cycle,
            self._device.service_cycles(access),
            self._device.min_gap_cycles(),
        )

    def reset(self) -> None:
        """Clear timing state (bank contents are in the backing store)."""
        self.busy_until = 0
        self.serviced = 0
        if self.intervals is not None:
            self.intervals = []
