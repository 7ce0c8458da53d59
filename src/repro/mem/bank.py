"""The busy-interval calendar every memory stage keeps.

A bank services one request at a time.  Its occupancy is a sorted
busy-interval calendar (:func:`reserve_interval`): a request arriving
while the bank is busy waits for the first idle gap long enough to hold
it, so contention serializes by *arrival time*, not by the order the
simulator happens to issue requests in.  The controller's front-end
dispatch stage and each channel's data bus keep the same kind of
calendar; the per-line arithmetic that walks all three lives in
:class:`repro.mem.controller.NVMMainMemory`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

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
    # Fast paths, O(1): an arrival after the last busy window opens a new
    # one; an arrival at or after the *start* of the last window queues
    # at its end and extends it.  Only a true gap fill searches.
    if n == 0 or arrival > calendar[-1]:
        calendar.append(arrival)
        calendar.append(arrival + span)
        if n + 2 > MAX_BOUNDARIES:
            del calendar[1:3]
        return arrival
    if arrival >= calendar[-2]:
        start = calendar[-1]
        calendar[-1] = start + span
        return start
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

