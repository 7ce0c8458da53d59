"""FullNVM policy: on-chip stash/PosMap built from NVM cells (Section 5.1).

A strawman persistence strategy: make the volatile controller structures
themselves non-volatile by building them from PCM (FullNVM) or STT-RAM
(FullNVM-STT) instead of SRAM.  Every stash fill, stash drain and PosMap
update then pays NVM cell latency, which is what produces the ~90% / ~38%
slowdowns of Figure 5(a) and the ~112% write-traffic blow-up of Figure 6(b)
("the writes to the on-chip NVM is significant").

Crucially, FullNVM is still **not crash consistent**: the stash and PosMap
survive a crash individually, but an access interrupted between the PosMap
update and the path write-back leaves them out of sync (the Section 3.2
atomicity requirement is unmet).  ``supports_crash_consistency`` is
therefore False even though the bits survive.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.config import NVMTimingConfig, PCM_TIMING
from repro.engine.policy import VolatilePolicy
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, RequestKind


class FullNVMPolicy(VolatilePolicy):
    """Volatile pipeline + timed on-chip NVM traffic on every structure touch."""

    #: Banks in the on-chip NVM macro.  On-chip arrays are wide but the
    #: macro is small, so fewer banks than the main memory; 6 banks puts
    #: the FullNVM slowdown in the paper's reported range.
    ONCHIP_BANKS = 6

    def __init__(self, onchip_timing: Optional[NVMTimingConfig] = None):
        self.onchip_timing = onchip_timing

    def attach(self, controller) -> None:
        super().attach(controller)
        c = controller
        timing = self.onchip_timing or c.config.onchip_nvm or PCM_TIMING
        # Size the on-chip macro to the stash + a PosMap working set.
        capacity = max(
            (c.oram_config.stash_capacity + 64) * c.oram_config.block_bytes,
            1 << 16,
        )
        timing = dataclasses.replace(timing, capacity_bytes=capacity)
        c.onchip = NVMMainMemory(
            timing,
            channels=1,
            banks_per_channel=self.ONCHIP_BANKS,
            line_bytes=c.oram_config.block_bytes,
        )
        self._stash_slot_cursor = 0

    # ------------------------------------------------------------------
    # timed on-chip NVM traffic
    # ------------------------------------------------------------------

    def _onchip_access(self, count: int, access: Access) -> None:
        """Issue ``count`` line accesses to the on-chip NVM and stall for them.

        The controller cannot overlap stash bookkeeping with the next
        protocol step — stash content determines what is evicted — so these
        accesses serialize into the access latency.
        """
        if count <= 0:
            return
        c = self.c
        mem_start = c.clock.core_to_mem(c.now)
        finish = mem_start
        for i in range(count):
            slot = (self._stash_slot_cursor + i) % max(
                1, c.oram_config.stash_capacity
            )
            request = c.onchip.issue(
                slot * c.oram_config.block_bytes,
                access,
                mem_start,
                RequestKind.ONCHIP_NVM,
            )
            complete = request.complete_cycle
            if complete is not None and complete > finish:
                finish = complete
        self._stash_slot_cursor += count
        c.now = c.clock.mem_to_core(finish)

    # -- pipeline hooks ----------------------------------------------------

    def remap(self, address: int) -> Tuple[int, int]:
        # PosMap read + write are NVM cell accesses.
        self._onchip_access(1, Access.READ)
        old_path, new_path = self.c._remap_mechanics(address)
        self._onchip_access(1, Access.WRITE)
        return old_path, new_path

    def on_absorb(self, blocks) -> None:
        # Filling the stash writes each fetched block into NVM cells.
        self._onchip_access(len(blocks), Access.WRITE)

    def evict(self, path_id: int) -> None:
        # Draining the stash reads each eviction candidate from NVM cells.
        # (The plan is recomputed inside the volatile eviction; planning is
        # deterministic, so the double planning only costs host time.)
        assignment, _ = self.c._plan_eviction(path_id)
        self._onchip_access(sum(len(level) for level in assignment), Access.READ)
        super().evict(path_id)

    # -- crash semantics ---------------------------------------------------

    def crash(self) -> None:
        """The NVM stash/PosMap keep their bits; only consistency is lost."""
        self.c.stats.counter("crashes").add()
        # Nothing cleared: the structures are non-volatile.  The in-flight
        # access may have left them inconsistent with the tree, which is
        # exactly why this design does not provide crash consistency.

    def supports_crash_consistency(self) -> bool:
        return False
