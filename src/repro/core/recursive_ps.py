"""Rcr-PS-ORAM: crash-consistent recursive ORAM (paper Sections 4.4, 5.1).

Combines the PS-ORAM mechanisms with a recursive PosMap in untrusted NVM:

* the **data tree** runs the PS-ORAM protocol (backup blocks, atomic
  dual-WPQ eviction);
* the **posmap tree** is itself a PS-ORAM instance (its small root PosMap
  persists through its own WPQ into a reserved region — equivalent to one
  more recursion level; DESIGN.md records the substitution);
* a data-block remap *is* written into the posmap tree at access time, like
  Rcr-Baseline ("the metadata in PosMap is written back to untrusted NVM in
  a tree organization every access").  The Section-3.3 Case-1 hazard — the
  durable PosMap naming a path the data never reached — is closed by a tiny
  persistent **intent log**: before the posmap tree is updated, the record
  ``(a, l_old, l_new, seq)`` is persisted (one line write).  Recovery
  replays unresolved intents: for each, the highest-version valid copy of
  ``a`` on paths {current, l_old, l_new} decides the entry.

The intent log is our mechanization of the paper's Claim-3 "small PosMap
ORAM path write" for deferred metadata: it costs one NVM line write per
access (write-only overhead, zero extra reads), where the paper reports
+15.5% writes for its variant of the bookkeeping.  The record is durable
once the WPQ accepts it (ADR), so the write is posted: the posmap-tree
update that follows does not wait for it to reach the NVM.  EXPERIMENTS.md
records measured-vs-paper for this row.

The remap/recovery protocol bodies live in
:class:`repro.engine.ps.RecursiveDirtyEntryPSPolicy`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import SystemConfig
from repro.engine.ps import DirtyEntryPSPolicy, RecursiveDirtyEntryPSPolicy
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, RequestKind
from repro.oram.recursive import RecursivePathORAM


class IntentLog:
    """A small cyclic region of persistent remap-intent records.

    One record per line: ``seq (8B) | address (8B) | old path (8B) | new
    path (8B)``.  Slots are written round-robin, so the write pattern is
    data-independent.  The log is sized like the temporary PosMap: it only
    needs to cover remaps whose data block has not yet been durably evicted.
    """

    RECORD_BYTES = 32

    def __init__(self, memory: NVMMainMemory, base: int, slots: int, line_bytes: int):
        if slots < 1:
            raise ValueError(f"intent log needs at least one slot, got {slots}")
        self.memory = memory
        self.base = base
        self.slots = slots
        self.line_bytes = line_bytes
        self._seq = 0
        self._cursor = 0

    @property
    def size_bytes(self) -> int:
        return self.slots * self.line_bytes

    def append(self, address: int, old_path: int, new_path: int, now_mem: int) -> None:
        """Persist one intent: a timed line write issued at ``now_mem``.

        The record is durable once the WPQ accepts it (ADR), so the write
        is posted: nothing waits for its completion.
        """
        self._seq += 1
        record = (
            self._seq.to_bytes(8, "little")
            + address.to_bytes(8, "little", signed=True)
            + old_path.to_bytes(8, "little")
            + new_path.to_bytes(8, "little")
        )
        line = self.base + self._cursor * self.line_bytes
        self._cursor = (self._cursor + 1) % self.slots
        self.memory.issue(line, Access.WRITE, now_mem, RequestKind.PERSIST, data=record)

    def records(self) -> List[Tuple[int, int, int, int]]:
        """All persisted records as (seq, address, old_path, new_path)."""
        out = []
        for slot in range(self.slots):
            line = self.memory.load_line(self.base + slot * self.line_bytes)
            if line is None or len(line) < self.RECORD_BYTES:
                continue
            seq = int.from_bytes(line[0:8], "little")
            if seq == 0:
                continue
            address = int.from_bytes(line[8:16], "little", signed=True)
            old_path = int.from_bytes(line[16:24], "little")
            new_path = int.from_bytes(line[24:32], "little")
            out.append((seq, address, old_path, new_path))
        out.sort()
        return out

    def restore_sequence(self) -> None:
        """After a crash, resume the sequence past every persisted record."""
        records = self.records()
        if records:
            self._seq = max(self._seq, records[-1][0])
            self._cursor = 0  # safe anywhere: slots are self-describing


class RcrPSORAMController(RecursivePathORAM):
    """Recursive PS-ORAM (the paper's Rcr-PS-ORAM)."""

    def __init__(
        self,
        config: SystemConfig,
        memory: Optional[NVMMainMemory] = None,
        key: bytes = b"repro-psoram-key",
    ):
        # RecursivePathORAM.__init__ builds the layout and the posmap tree,
        # which is itself crash-consistent (PS-ORAM flavoured); the data
        # tree's policy adds the temp-PosMap/drainer machinery.
        super().__init__(
            config,
            memory=memory,
            key=key,
            policy=RecursiveDirtyEntryPSPolicy(),
            posmap_policy=DirtyEntryPSPolicy(),
        )
        inner = self.posmap_oram.controller
        # Skip the inner controller's version line + bounce region.
        scratch = (1 + DirtyEntryPSPolicy.BOUNCE_LINES) * self.oram_config.block_bytes
        intent_base = (
            inner.persistent_posmap.region.base
            + inner.persistent_posmap.region.size_bytes
            + scratch
        )
        self.intent_log = IntentLog(
            self.memory,
            base=intent_base,
            slots=self.oram_config.temp_posmap_capacity,
            line_bytes=self.oram_config.block_bytes,
        )
