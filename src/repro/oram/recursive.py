"""Recursive PosMap ORAM (paper Section 4.4, following Freecursive as cited).

When no trusted memory region exists, the PosMap cannot live in a flat NVM
table — updating entry ``a`` in place would reveal which logical block was
touched.  Instead the PosMap itself is stored as a (smaller) ORAM tree in
untrusted NVM: ``block_bytes // 8`` path ids are packed into each posmap
block, and looking up / updating one entry is a normal ORAM access
on the *posmap tree*.  The posmap tree's own position map (much smaller) is
kept on-chip.

Like the paper's recursive systems (Section 4.4, Fig. 5(b)) we build
exactly one posmap tree and no PosMap Lookaside Buffer.  With the paper's
parameters (L = 23, Z = 4, 8 entries/block) the posmap tree has height
20, so a posmap access adds ``4 * 21 = 84`` slot reads + writes on top of
the data path's 96 — matching the ~90% read-traffic increase Figure 6(a)
reports for the recursive schemes.

:class:`RecursivePathORAM` is the paper's **Rcr-Baseline**: every access
performs the posmap-tree access (so PosMap updates are written back to NVM
in tree organization every time) but the stash is volatile and the
data/metadata writebacks are not atomic — it is persistent but *not*
crash-consistent.  The crash-consistent Rcr-PS-ORAM lives in
:mod:`repro.core.recursive_ps`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.config import SystemConfig
from repro.engine.policy import PersistencePolicy
from repro.mem.controller import NVMMainMemory
from repro.mem.request import RequestKind
from repro.oram.controller import PathORAMController
from repro.oram.layout import MemoryLayout, PosMapRegion


ENTRY_BYTES = 8


def pack_entry(payload: bytes, slot: int, path_id: int) -> bytes:
    """Write one packed path-id entry into a posmap-block payload."""
    buf = bytearray(payload)
    buf[slot * ENTRY_BYTES : (slot + 1) * ENTRY_BYTES] = path_id.to_bytes(
        ENTRY_BYTES, "little"
    )
    return bytes(buf)


def unpack_entry(payload: bytes, slot: int) -> int:
    """Read one packed path-id entry from a posmap-block payload."""
    return int.from_bytes(payload[slot * ENTRY_BYTES : (slot + 1) * ENTRY_BYTES], "little")


class PosMapORAM:
    """The posmap tree: a mini Path ORAM storing packed path-id entries.

    Wraps a controller (baseline or PS-ORAM flavoured, injected by the
    caller) and exposes entry-level lookup-and-update.  Uninitialized
    entries decode as the deterministic initial mapping of the *data* ORAM,
    courtesy of an injected ``initial_path`` function — so no
    initialization pass is needed.
    """

    SENTINEL = (1 << 64) - 1  # "entry never written" marker inside a block

    def __init__(self, controller: PathORAMController, initial_path):
        self.controller = controller
        self.entries_per_block = controller.oram_config.posmap_entries_per_block
        self._initial_path = initial_path

    def _locate(self, address: int) -> Tuple[int, int]:
        return address // self.entries_per_block, address % self.entries_per_block

    def _decode(self, payload: bytes, slot: int, address: int) -> int:
        raw = unpack_entry(payload, slot)
        # A zero payload means the posmap block was never written; a
        # sentinel means this particular entry was never written.
        if raw == 0 or raw == self.SENTINEL:
            return self._initial_path(address)
        return raw - 1  # stored with +1 bias so 0 can mean "unwritten"

    def lookup_update(self, address: int, new_path: int) -> int:
        """One timed posmap-tree access: read entry, write ``new_path``.

        Returns the previous path id for ``address``.
        """
        block_idx, slot = self._locate(address)
        result = self.controller.read_modify_write(
            block_idx, lambda old: pack_entry(old, slot, new_path + 1)
        )
        return self._decode(result.data, slot, address)

    @property
    def now(self) -> int:
        return self.controller.now

    @now.setter
    def now(self, value: int) -> None:
        self.controller.now = value


class RecursivePathORAM(PathORAMController):
    """Rcr-Baseline: Path ORAM with a recursive PosMap in untrusted NVM.

    One posmap tree stores the data tree's entries; only its own (small)
    PosMap stays on-chip.  ``posmap_policy`` is the posmap tree's
    persistence policy (volatile by default; Rcr-PS-ORAM passes a PS-ORAM
    one).  The inherited ``self.posmap`` dict remains the *architectural*
    view the controller trusts for staleness checks; the posmap tree
    provides the timed, persistent storage.  On a crash the architectural
    view is lost with everything else on chip; Rcr-Baseline cannot rebuild
    a consistent state because the posmap-tree stash and root posmap were
    volatile.
    """

    def __init__(
        self,
        config: SystemConfig,
        memory: Optional[NVMMainMemory] = None,
        key: bytes = b"repro-psoram-key",
        posmap_policy: Optional[PersistencePolicy] = None,
        **kwargs,
    ):
        line = config.oram.block_bytes
        layout = MemoryLayout(config.oram, line_bytes=line, recursive=True)
        super().__init__(
            config,
            memory=memory,
            key=key,
            data_region=layout.data_tree,
            posmap_region=layout.posmap,
            name="data-oram",
            **kwargs,
        )
        self.layout = layout
        pm_region = layout.posmap_tree
        pm_config = dataclasses.replace(
            config.oram,
            height=pm_region.height,
            stash_capacity=max(
                config.oram.stash_capacity, 2 * config.oram.z * (pm_region.height + 1)
            ),
        )
        # Flat drain region after the tree (used by the PS policy's WPQ
        # machinery; inert for the baseline).
        root_posmap_region = PosMapRegion(
            base=pm_region.base + pm_region.size_bytes,
            num_entries=pm_config.num_logical_blocks,
            line_bytes=line,
        )
        controller = PathORAMController(
            config,
            memory=self.memory,
            key=key,
            oram_config=pm_config,
            data_region=pm_region,
            posmap_region=root_posmap_region,
            request_kind=RequestKind.POSMAP,
            name="posmap-oram",
            policy=posmap_policy,
        )
        self.posmap_oram = PosMapORAM(controller, self.posmap.initial_path)

    def hold_tree_top(self) -> int:
        self.posmap_oram.controller.hold_tree_top()
        return super().hold_tree_top()

    # -- step 2 override ---------------------------------------------------

    def _remap_update(self, address: int, new_path: int, old_path: int) -> None:
        """Timed recursive PosMap lookup + update.

        The posmap-tree access and the architectural update happen
        together; the mini controller's clock is slaved to ours around the
        call.
        """
        self.posmap.set(address, new_path)
        self.posmap_oram.now = self.now
        stored_old = self.posmap_oram.lookup_update(address, new_path)
        self.now = self.posmap_oram.now
        # The architectural view and the tree-stored view must agree; they
        # can only diverge after a crash, which recovery reconciles.
        if stored_old != old_path:
            self.stats.counter("posmap_divergence").add()

    # -- crash semantics -------------------------------------------------------

    def _crash_dependents(self) -> None:
        """The posmap tree's volatile state is lost along with the data ORAM's."""
        self.posmap_oram.controller.crash()
