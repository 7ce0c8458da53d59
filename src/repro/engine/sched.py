"""Memory-level-parallel access window over the phase pipeline.

`repro.mem` models independent channels and banks, yet the serial
pipeline in :mod:`repro.engine.base` keeps at most one access in
*flight* at a time: the fetch of access *i+1* is timestamped after the
full protocol latency of access *i* (decrypt, eviction planning,
re-encrypt, commit), even when the two paths are disjoint and the NVM
has idle banks.  Palermo-style protocol/hardware co-design (PAPERS.md)
shows that overlapping consecutive ORAM accesses across channels is
where the big multi-channel wins are.

:class:`WindowScheduler` adds that overlap without touching logical
state.  It keeps a sliding window of up to ``window`` accesses that are
*architecturally complete but timing-wise in flight* (their write-back
still occupies bank/bus calendars), and starts the next access at the
earliest cycle its hazards allow:

* **same-address hazard** — a younger access to the address of an older
  in-flight access serializes behind that access's full completion;
* **bucket-segment hazard** — two paths that share buckets *below* the
  on-chip buffered top levels contend only for those shared bucket
  segments.  The older access reports the memory cycle each tree level's
  write-back round released its bucket
  (:attr:`repro.engine.base.AccessResult.writeback_level_release`), and
  the younger access's *fetch of that level* is floored to that cycle —
  everything on the disjoint subtree overlaps freely.  Every pair of
  paths shares the root, so a window deeper than 1 turns on the
  controller's on-chip write-through bucket buffer
  (:meth:`repro.oram.tree.ORAMTree.hold_top`) for the top levels of
  every tree it owns, and reads the buffered level count from the tree.
  Those levels are never floored: a buffered fetch instead completes no
  earlier than the same controller's previous eviction refreshed the
  buffer (the buffer's read-after-write rule);
* **whole-path fallback** — an older access that reported no per-level
  release (stash hits) or an access whose path cannot
  be peeked (non-tree hierarchies): the younger access serializes behind
  the older's full completion;
* **window retirement** — an access that falls out of the window is a
  hard floor: nothing younger may start before its write-back end, which
  bounds how deep the overlap can run;
* **disjoint paths** — no scheduler barrier at all.  Physical
  serialization is the memory model's job: front-end dispatch, every
  bank and every data bus are busy-interval calendars
  (:mod:`repro.mem.controller`) that keep their full per-request
  occupancy but serve requests by *arrival time* — a younger fetch's
  lines land in the idle gaps under an older access's still-queued
  write-back, interleaving across channels as the per-channel
  ``next_free_cycles`` report.

**Speculative posmap lookahead** models pre-resolving the next
request's leaf while the previous access is still in flight: when the
scheduler can peek the path (a read-only posmap probe), the frontend
re-accepts after one cycle instead of the full on-chip lookup latency.
The peek is sound because execution is functionally serial — every
older access's remap has already been applied to the posmap by the time
the peek runs, so the peeked leaf is exactly the leaf the access will
fetch.

Execution stays *functionally serial*: each access runs to completion
through the unmodified pipeline before the next begins, so stash,
PosMap, NVM image and NVM write traffic are byte-identical to window 1
— only the cycle each access is launched at (and, under segment floors,
the arrival of its per-level fetch groups) changes, and the buffered top
levels are no longer read from NVM.  The interval calendars make the
early launch sound: a request arriving while a resource is busy still
waits its turn.  Window 1 returns the bare controller with no buffer;
serial and windowed runs share the one memory model, so the modeled
speedup of a window over serial has two named sources: the cross-access
overlap and the tree-top buffer's saved reads.

Crash semantics are preserved by the same property.  Every crash point
fires inside one access's serial execution, when all older accesses
have fully committed their persist rounds — equivalent to draining the
window to a barrier before each policy persist-commit checkpoint.
:meth:`WindowScheduler.drain` makes the barrier explicit for external
checkpoints (service snapshots, crash/recover).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.engine.base import AccessResult
from repro.errors import InvalidAddressError


class _Inflight:
    """Timing record of one architecturally-complete in-flight access."""

    __slots__ = (
        "address",
        "path",
        "fetch_finish",
        "finish",
        "wb_release",
    )

    def __init__(
        self,
        address: int,
        path: int,
        fetch_finish: int,
        finish: int,
        wb_release: tuple,
    ):
        self.address = address
        self.path = path
        self.fetch_finish = fetch_finish
        self.finish = finish
        #: Per-level mem cycle at which this access's write-back released
        #: each tree bucket segment (root-first); empty when the policy
        #: reported none (stash hits) — the scheduler
        #: then falls back to whole-path serialization against it.
        self.wb_release = wb_release


class WindowScheduler:
    """In-flight access window in front of an :class:`AccessEngine`.

    Wraps a controller and exposes its full surface (attribute access is
    delegated), intercepting only the access entry points.  ``window=1``
    is a strict pass-through — bit-for-bit the serial pipeline, including
    every timing digest.
    """

    _OWN_ATTRS = frozenset(
        {
            "controller",
            "window",
            "_inflight",
            "_horizon",
            "_ready",
            "_ready_spec",
            "_floor",
            "_height",
            "_top",
            "_c_overlapped",
            "_c_hazard_addr",
            "_c_hazard_path",
            "_c_hazard_segment",
            "_c_lookahead",
        }
    )

    def __init__(self, controller, window: int = 4):
        if window < 1:
            raise ValueError(f"scheduler window must be >= 1, got {window}")
        self.controller = controller
        self.window = window
        self._inflight: deque = deque()
        self._horizon = controller.now
        # The cycle the engine frontend next accepts a request (the
        # previous access's start plus one on-chip lookup)...
        self._ready = controller.now
        # ...or plus a single cycle when the next leaf was pre-resolved
        # speculatively while the previous access was in flight.
        self._ready_spec = controller.now
        # Hard barrier: no access may start before this (window-retired
        # accesses and explicit drains land here).
        self._floor = controller.now
        tree = getattr(controller, "tree", None)
        if tree is not None:
            self._height = tree.height
            # Paths that diverge within the on-chip buffered levels do not
            # conflict; the buffer is what keeps the root, which every
            # pair of paths shares, from serializing all traffic.
            if window > 1:
                controller.hold_tree_top()
            self._top = tree.buffered_levels
        else:
            # No tree (plain/strawman hierarchies): every pair of
            # "paths" conflicts, i.e. accesses serialize.
            self._height = 0
            self._top = 0
        stats = controller.stats
        self._c_overlapped = stats.counter("sched_overlapped")
        self._c_hazard_addr = stats.counter("sched_hazard_same_address")
        self._c_hazard_path = stats.counter("sched_hazard_path_overlap")
        self._c_hazard_segment = stats.counter("sched_hazard_segment")
        self._c_lookahead = stats.counter("sched_lookahead_hits")

    # -- delegation ---------------------------------------------------------

    def __getattr__(self, name):
        return getattr(self.controller, name)

    def __setattr__(self, name, value):
        if name in self._OWN_ATTRS:
            object.__setattr__(self, name, value)
        elif name == "now":
            # Treat an external clock set as a barrier re-basing.
            self.controller.now = value
            object.__setattr__(self, "_horizon", value)
            object.__setattr__(self, "_ready", value)
            object.__setattr__(self, "_ready_spec", value)
            object.__setattr__(self, "_floor", value)
            self._inflight.clear()
        else:
            setattr(self.controller, name, value)

    @property
    def now(self) -> int:
        """Completion horizon: no in-flight access finishes after this."""
        c_now = self.controller.now
        return self._horizon if self._horizon > c_now else c_now

    # -- hazard model -------------------------------------------------------

    def _paths_conflict(self, a: int, b: int) -> bool:
        """Whether two paths share a bucket below the buffered top levels."""
        if a == b:
            return True
        shared_levels = self._height - (a ^ b).bit_length()
        return shared_levels >= self._top

    def _shared_levels(self, a: int, b: int) -> int:
        """Deepest tree level where paths ``a`` and ``b`` share a bucket."""
        if a == b:
            return self._height
        return self._height - (a ^ b).bit_length()

    def _peek_path(self, address: int) -> Optional[int]:
        """Read-only view of the path the next access will fetch.

        ``None`` means "no peekable position" — a non-tree hierarchy
        (plain/strawman controllers have no posmap) or an out-of-range
        address (``access()`` will raise the proper error itself); the
        scheduler then serializes conservatively.  Any *other* failure is
        a real fault in the position machinery and propagates: swallowing
        it here would silently degrade every access to whole-path
        serialization and mask the bug.
        """
        if self._height == 0:
            return None
        try:
            return self.controller._position_of(address)
        except InvalidAddressError:
            return None

    # -- access entry points ------------------------------------------------

    def access(
        self,
        address: int,
        is_write: bool = False,
        data: Optional[bytes] = None,
        start_cycle: Optional[int] = None,
        mutator=None,
    ) -> AccessResult:
        c = self.controller
        if self.window <= 1:
            return c.access(
                address, is_write, data=data, start_cycle=start_cycle, mutator=mutator
            )
        # Retire accesses that no longer fit the window: the window bounds
        # how deep the overlap may run, so a retired access's write-back
        # end becomes a hard floor for everything younger.
        while len(self._inflight) >= self.window:
            retired = self._inflight.popleft()
            if retired.finish > self._floor:
                self._floor = retired.finish
        # Peek the leaf before arrival: the peek both drives the hazard
        # decomposition below and models the speculative posmap lookahead
        # (the leaf was pre-resolved while the previous access was in
        # flight, so the frontend re-accepted early).
        path = self._peek_path(address)
        # Arrival: an explicit start_cycle wins; otherwise the engine
        # frontend accepts a new request as soon as the previous one has
        # cleared position lookup — MLP is then bounded only by the
        # window depth, the hazard barriers below, and (physically) the
        # memory model's dispatch/bank/bus calendars.
        if start_cycle is not None:
            arrival = start_cycle
        elif path is not None:
            arrival = self._ready_spec
            if arrival < self._ready:
                self._c_lookahead.add()
        else:
            arrival = self._ready
        if arrival < self._floor:
            arrival = self._floor
        start = arrival
        level_floors: Optional[List[int]] = None
        for rec in self._inflight:
            if rec.address == address:
                barrier = rec.finish
                self._c_hazard_addr.add()
            elif path is None or self._paths_conflict(rec.path, path):
                if path is not None and rec.wb_release and rec.fetch_finish >= 0:
                    # Bucket-segment hazard: floor only the shared levels'
                    # fetches to the older write-back rounds that released
                    # them; the disjoint subtree overlaps freely.  The
                    # younger access's own write-back lands after its
                    # (floored) fetch, and the interval calendars order
                    # the line traffic physically.
                    shared = self._shared_levels(rec.path, path)
                    if level_floors is None:
                        level_floors = [0] * (self._height + 1)
                    release = rec.wb_release
                    for level in range(self._top, shared + 1):
                        if release[level] > level_floors[level]:
                            level_floors[level] = release[level]
                    self._c_hazard_segment.add()
                    continue
                # Whole-path fallback: unknown path (non-tree hierarchy)
                # or an older access that reported no per-level release
                # (stash hits) — stay conservative and
                # serialize behind it.
                barrier = rec.finish
                self._c_hazard_path.add()
            else:
                # Disjoint paths: no protocol-level ordering is needed,
                # so the scheduler imposes no barrier.  Physical
                # serialization is the memory model's job — the dispatch,
                # bank and bus interval calendars, where the younger
                # access's lines interleave with the older write-back's
                # idle gaps.  When the fetch split is unreported (no
                # timing decomposition to overlap with), stay fully serial.
                if rec.fetch_finish < 0:
                    barrier = rec.finish
                else:
                    continue
            if barrier > start:
                start = barrier
        if start < c.now:
            # Launch under the older accesses' write-back: rewind the
            # engine clock to the overlapped start.  The memory model's
            # interval calendars keep every line access sound — a line
            # arriving while its bank/bus is occupied still waits.
            c.now = start
            self._c_overlapped.add()
        if level_floors is not None and any(level_floors):
            c._fetch_level_floors = level_floors
        try:
            result = c.access(
                address, is_write, data=data, start_cycle=start, mutator=mutator
            )
        finally:
            # Consume-once contract: a stash hit (or a mid-access crash)
            # never reaches the fetch phase, so clear any unconsumed
            # floors rather than let them leak into the next access.
            c._fetch_level_floors = None
        if result.finish_cycle > self._horizon:
            self._horizon = result.finish_cycle
        # The frontend is busy for one on-chip lookup; afterwards the
        # next request may enter (hazards permitting).
        lookup = getattr(c, "ONCHIP_LOOKUP_CYCLES", 0)
        self._ready = result.start_cycle + lookup
        # With the next leaf pre-resolved speculatively, the frontend
        # frees after a single accept cycle instead (never later than
        # the non-speculative ready — plain hierarchies have a 0-cycle
        # lookup).
        self._ready_spec = result.start_cycle + min(1, lookup)
        self._inflight.append(
            _Inflight(
                address,
                result.old_path,
                result.fetch_finish_cycle,
                result.finish_cycle,
                result.writeback_level_release,
            )
        )
        return result

    def read(self, address: int, start_cycle: Optional[int] = None) -> AccessResult:
        return self.access(address, is_write=False, start_cycle=start_cycle)

    def write(
        self, address: int, data: bytes, start_cycle: Optional[int] = None
    ) -> AccessResult:
        return self.access(address, is_write=True, data=data, start_cycle=start_cycle)

    def read_modify_write(
        self, address: int, mutator, start_cycle: Optional[int] = None
    ) -> AccessResult:
        return self.access(address, is_write=True, mutator=mutator, start_cycle=start_cycle)

    # -- barriers -----------------------------------------------------------

    def drain(self) -> int:
        """Barrier: advance the clock past every in-flight write-back.

        Returns the barrier cycle.  After ``drain`` the machine state is
        exactly the serial pipeline's: clock at the completion horizon,
        no overlap credit left for the next access.
        """
        c = self.controller
        if self._horizon > c.now:
            c.now = self._horizon
        self._inflight.clear()
        self._ready = c.now
        self._ready_spec = c.now
        self._floor = c.now
        return c.now

    def crash(self) -> None:
        """Power loss: drain the window to the barrier first."""
        self.drain()
        self.controller.crash()

    def recover(self) -> bool:
        self.drain()
        return self.controller.recover()


def wrap_controller(controller, window: int):
    """Wrap ``controller`` in a :class:`WindowScheduler` when ``window > 1``.

    The window-1 case returns the controller untouched so serial setups
    carry zero wrapper overhead (and stay object-identical for tests).
    """
    if window <= 1:
        return controller
    return WindowScheduler(controller, window)
