"""Hybrid DRAM+NVM PS-ORAM controller.

Placement: the top ``dram_levels`` levels of the ORAM tree are replicated
in DRAM.  Reads of those levels are served at DRAM latency; reads of the
deeper levels go to NVM as usual.  Persistence: **write-through** — every
eviction write still commits to NVM through the atomic WPQ rounds, so all
PS-ORAM crash guarantees hold verbatim (the DRAM copy is a pure read
accelerator and is simply discarded on a crash).

This resolves the paper's Section-4.5 questions conservatively:

* *placement* — tree-top, because level ``l`` is touched by every ``2**-l``
  of all accesses: the top levels are the hottest lines in the system;
* *persistence cadence* — every write, because anything laxer weakens the
  durability contract the crash tests pin down (a write-back DRAM tier
  would need its own WPQ treatment; see DESIGN.md).

Bonus effect faithfully modelled: NVM *read* traffic drops by the DRAM
fraction of each path, which also helps NVM lifetime and contention.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.config import DRAM_TIMING, SystemConfig
from repro.engine.ps import DirtyEntryPSPolicy
from repro.hybrid.treetop import TreeTopRegion
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, RequestKind
from repro.oram.controller import PathORAMController
from repro.oram.tree import ORAMTree
from repro.util.bitops import bucket_index


class _HybridTree(ORAMTree):
    """ORAM tree whose top-level reads are served from a DRAM replica.

    Functional content always lives in the NVM image (write-through keeps
    the replica byte-identical), so only the *timing* of top-level reads is
    redirected to the DRAM model.  Behind a window deeper than 1 the
    on-chip bucket buffer serves the top :attr:`buffered_levels` before
    the DRAM replica does.
    """

    def __init__(self, region, memory, codec, dram: NVMMainMemory,
                 treetop: TreeTopRegion):
        super().__init__(region, memory, codec, kind=RequestKind.DATA_PATH)
        self.dram = dram
        self.treetop = treetop

    def read_path(self, path_id: int, start_cycle: int, level_floors=None):
        blocks = []
        finish = start_cycle
        spans = []
        top = self.buffered_levels
        for level in range(self.height + 1):
            b_idx = bucket_index(path_id, level, self.height)
            if level < top:
                # On-chip bucket buffer: decode from the image, no timed read.
                blocks.extend(self.load_slot(b_idx, slot) for slot in range(self.z))
                spans.append((start_cycle, start_cycle))
                continue
            # Segment-hazard floor (window scheduler): this level's bucket
            # may not be fetched before the older write-back released it.
            arrival = start_cycle
            if level_floors is not None and level_floors[level] > arrival:
                arrival = level_floors[level]
            level_finish = arrival
            for slot in range(self.z):
                address = self.region.slot_address(b_idx, slot)
                target = self.dram if self.treetop.is_dram(address) else self.memory
                request = target.issue(address, Access.READ, arrival, self.kind)
                complete = request.complete_cycle
                if complete is not None and complete > level_finish:
                    level_finish = complete
                blocks.append(self.load_slot(b_idx, slot))
            spans.append((arrival, level_finish))
            if level_finish > finish:
                finish = level_finish
        if top and self.buffer_refreshed > finish:
            finish = self.buffer_refreshed
        self.last_read_level_spans = tuple(spans)
        return blocks, finish


class HybridPSORAMController(PathORAMController):
    """PS-ORAM on a hybrid DRAM+NVM memory (write-through tree top)."""

    def __init__(
        self,
        config: SystemConfig,
        memory: Optional[NVMMainMemory] = None,
        key: bytes = b"repro-psoram-key",
        dram_levels: int = 4,
    ):
        super().__init__(config, memory=memory, key=key, policy=DirtyEntryPSPolicy())
        # DRAM replica timing, expressed in the NVM clock domain so one
        # clock conversion serves both tiers.
        scale = DRAM_TIMING.freq_hz / config.nvm.freq_hz
        dram_timing = dataclasses.replace(
            DRAM_TIMING,
            freq_hz=config.nvm.freq_hz,
            t_rcd=max(1, round(DRAM_TIMING.t_rcd / scale)),
            t_wp=max(1, round(DRAM_TIMING.t_wp / scale)),
            t_cwd=max(1, round(DRAM_TIMING.t_cwd / scale)),
            t_wtr=max(1, round(DRAM_TIMING.t_wtr / scale)),
            t_rp=max(1, round(DRAM_TIMING.t_rp / scale)),
            capacity_bytes=config.nvm.capacity_bytes,
        )
        self.dram = NVMMainMemory(
            dram_timing,
            channels=1,
            banks_per_channel=config.banks_per_channel,
            line_bytes=config.oram.block_bytes,
        )
        self.treetop = TreeTopRegion(self.tree.region, min(
            dram_levels, self.tree.height + 1
        ))
        # Swap in the hybrid tree (same region/codec; adds DRAM routing).
        self.tree = _HybridTree(
            self.tree.region, self.memory, self.codec, self.dram, self.treetop
        )

    def _evict(self, path_id: int) -> None:
        """PS eviction, then refresh the DRAM replica of the top levels.

        The refresh writes are posted to the DRAM model for timing/traffic
        accounting; functionally the NVM image is already current
        (write-through), so no bytes move here.
        """
        super()._evict(path_id)
        mem_now = self.clock.core_to_mem(self.now)
        for level in range(min(self.treetop.dram_levels, self.tree.height + 1)):
            b_idx = bucket_index(path_id, level, self.tree.height)
            for slot in range(self.tree.z):
                address = self.tree.region.slot_address(b_idx, slot)
                self.dram.issue(address, Access.WRITE, mem_now, RequestKind.DATA_PATH)

    def _crash_dependents(self) -> None:
        """DRAM replica evaporates; everything durable is in NVM already."""
        self.dram.reset_timing()

    def dram_read_fraction(self) -> float:
        """Measured share of data-path reads served by DRAM."""
        dram_reads = self.dram.traffic.total_reads
        nvm_reads = self.memory.traffic.reads_of(RequestKind.DATA_PATH)
        total = dram_reads + nvm_reads
        return dram_reads / total if total else 0.0
