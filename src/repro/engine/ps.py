"""The PS-ORAM persistence policies (paper Section 4.2).

Extracted from the former controller subclasses: the temporary PosMap,
backup block, and atomic dual-WPQ drainer protocol live here as
:class:`DirtyEntryPSPolicy`, with two specializations:

* :class:`NaiveFlushAllPolicy` — persists ``Z*(L+1)`` PosMap entries per
  access instead of only the dirty ones (the straw man of Section 4.2.2).
* :class:`RecursiveDirtyEntryPSPolicy` — the recursive PosMap flavour:
  a persistent intent log instead of flat-region entry flushes.

Durability contract these policies provide (verified by the crash
test-suite): when ``access`` returns, the access's effect is durable — a
crash at *any* later point recovers the written value.  A crash in the
middle of an access atomically rolls the whole access back.  This is
slightly stronger than the paper states (it never pins down when a write
becomes durable); the stash-hit-write path performs a full access for
this reason (see :meth:`DirtyEntryPSPolicy.allow_stash_hit`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.backup import make_backup_entry
from repro.core.drainer import Drainer
from repro.core.ordered_eviction import SlotWrite, plan_rounds
from repro.core.temp_posmap import TempPosMap
from repro.engine.policy import PersistencePolicy
from repro.errors import RecoveryError
from repro.mem.request import RequestKind
from repro.oram.block import Block
from repro.oram.stash import StashEntry
from repro.util.bitops import bucket_index, path_bucket_indices
from repro.util.stats import LazyCounter

#: Crash-injection labels the Path-hierarchy PS policies fire, beyond the
#: engine's phase boundaries.
PS_CRASH_POINTS = (
    "step2:before-remap",
    "step2:after-remap",
    "step4:before-backup",
    "step4:after-backup",
    "step5:before-start",
    "step5:round-open",
    "step5:before-end",
    "step5:after-end",
    "step5:after-flush",
)

#: The recursive flavour adds the intent-log point.
RCR_CRASH_POINTS = (
    "step2:before-remap",
    "step2:after-intent",
    "step2:after-remap",
    "step4:before-backup",
    "step4:after-backup",
    "step5:before-start",
    "step5:round-open",
    "step5:before-end",
    "step5:after-end",
    "step5:after-flush",
)


class DirtyEntryPSPolicy(PersistencePolicy):
    """PS-ORAM: temp PosMap + backup block + atomic dual-WPQ eviction.

    The four crash-consistency mechanisms of paper Section 4.2:

    * **temporary PosMap** (step 2): fresh path ids are parked on-chip;
      the persistent PosMap keeps pointing at a durable copy of the block.
    * **backup block** (step 4): the accessed block's current content is
      cloned with its *old* label and written back onto the old path in
      the same eviction round, so a durable copy always exists.
    * **atomic dual-WPQ eviction** (step 5-A/B/C): the full-path write and
      the dirty PosMap entries commit in one drainer-bracketed round.
    * **dirty-entry persistence**: only PosMap entries whose blocks were
      just durably evicted are flushed.
    """

    #: Persistent bounce lines available to the limited-WPQ ordered
    #: eviction for breaking slot-permutation cycles longer than the WPQ.
    BOUNCE_LINES = 16

    def attach(self, controller) -> None:
        super().attach(controller)
        c = controller
        c.temp_posmap = TempPosMap(c.oram_config.temp_posmap_capacity)
        region = c.persistent_posmap.region
        c._version_line = region.base + region.size_bytes
        line = c.oram_config.block_bytes
        c._bounce_lines = [
            c._version_line + (1 + i) * line for i in range(self.BOUNCE_LINES)
        ]
        c.drainer = Drainer(
            c.memory,
            data_capacity=max(c.config.wpq.data_entries, 1),
            posmap_capacity=max(c.config.wpq.posmap_entries, 1),
            apply_posmap_entry=self._commit_posmap_entry,
            version_line=c._version_line,
            version_provider=lambda: c._version,
        )
        # Pending label graduation from a stash-hit write (see remap()).
        self._graduate: Optional[Tuple[int, int]] = None
        self._pad_cursor = 0
        # Per-access counters, bound once (see the hierarchy __init__s).
        self._c_temp_posmap_inserts = LazyCounter(c.stats, "temp_posmap_inserts")
        self._c_backups_created = LazyCounter(c.stats, "backups_created")
        self._c_posmap_persisted = LazyCounter(c.stats, "posmap_entries_persisted")
        # (crash_hook is a class attribute of AccessEngine — every
        # engine-driven variant is injectable, not just the PS family.)

    # ------------------------------------------------------------------
    # position map view (step 2)
    # ------------------------------------------------------------------

    def pending_position(self, address: int) -> Optional[int]:
        """Architecturally current mapping: temporary PosMap first."""
        return self.c.temp_posmap.get(address)

    def allow_stash_hit(self, mutates: bool) -> bool:
        # Reads may short-circuit; writes run the full protocol so the new
        # value is durable when the access returns.
        return not mutates

    def remap(self, address: int) -> Tuple[int, int]:
        """Step 2: backup label — the new path id goes to the temp PosMap.

        The *old* path returned for the path read is normally the
        persistent PosMap's value (where recovery will look, so where the
        backup must land).  When the block is still stash-resident with a
        *pending* remap — a stash-hit write — re-reading the persistent
        label would repeat an already-observed path (a leak).  Instead the
        pending label is read (fresh, never revealed) and **graduates** to
        persistent in the same atomic round that writes the backup onto it,
        so recovery stays sound and every observed path id is a fresh
        uniform draw.
        """
        c = self.c
        c._checkpoint("step2:before-remap")
        if c.temp_posmap.is_full:
            self._relieve_temp_posmap()
        pending = c.temp_posmap.get(address)
        if pending is not None:
            old_path = pending
            self._graduate = (address, pending)
            c.stats.counter("labels_graduated").add()
        else:
            old_path = c.posmap.get(address)  # where recovery will look
            self._graduate = None
        new_path = c.rng.randrange(c.posmap.num_leaves)
        c.temp_posmap.set(address, new_path)
        self._c_temp_posmap_inserts.add()
        c._checkpoint("step2:after-remap")
        return old_path, new_path

    # ------------------------------------------------------------------
    # backup block (step 4)
    # ------------------------------------------------------------------

    def pre_relabel(self, target: StashEntry, old_path: int, new_path: int) -> None:
        """Step 4: backup data — clone the block onto its old label."""
        c = self.c
        c._checkpoint("step4:before-backup")
        backup = make_backup_entry(target, old_path)
        # The block's current durable copy on the eviction path: either the
        # slot the target was just fetched from, or (stash-hit write) the
        # previous backup's slot.  The fresh backup's write must commit
        # before that slot is overwritten (limited-WPQ ordering).
        backup.fetch_round = c._round
        if target.fetch_round == c._round and target.source_line is not None:
            backup.source_line = target.source_line
        else:
            backup.source_line = c._stale_line_of.get(target.block.address)
        c.stash.add(backup)
        self._c_backups_created.add()

    def post_relabel(self, target: StashEntry, old_path: int, new_path: int) -> None:
        self.c._checkpoint("step4:after-backup")

    # ------------------------------------------------------------------
    # persistent eviction (step 5)
    # ------------------------------------------------------------------

    def evict(self, path_id: int) -> None:
        """Step 5: persistent eviction through the dual WPQs (5-A/B/C).

        With full-path-sized WPQs (the paper's 96-entry sizing) the whole
        eviction is one atomic round.  With smaller WPQs the write-back is
        split into ordered rounds per Section 4.2.3 — see
        :mod:`repro.core.ordered_eviction`.  Either way a round is a list
        of indices into the encoded path's ``(line, wire)`` columns.
        """
        c = self.c
        assignment, placed = c._plan_eviction(path_id)

        # 5-A: encrypt eviction candidates and identify dirty PosMap entries.
        c._checkpoint("step5:before-start")
        z = c.tree.z
        dummies = [Block.dummy_template(c.codec.block_bytes)] * z
        blocks: List[Block] = []
        slot_of = {}  # id(placed block) -> its slot index on the path
        for level, level_blocks in enumerate(assignment):
            if level_blocks:
                level_blocks = level_blocks[:z]
                for slot, block in enumerate(level_blocks, level * z):
                    slot_of[id(block)] = slot
                blocks += level_blocks
            blocks += dummies[len(level_blocks):]
        # One batched codec pass over the whole path.
        lines = c.tree.path_addresses(path_id)
        wires = c.codec.encode_path(blocks, lines)
        slots = len(wires)
        # Slot index -> (logical address, is backup) of the placed block it
        # writes: the matching dirty PosMap entry commits in that slot's
        # round.
        slot_key = {
            slot_of[id(entry.block)]: (entry.block.address, entry.is_backup)
            for entry in placed if not entry.block.is_dummy
        }
        dirty_entries = self._dirty_entries_for(placed)
        c.now += c.engine.batch_latency_cycles(slots)

        # Rounds are sized so a round's block-bound PosMap entries (at most
        # one per data write) can never exceed the metadata WPQ either.
        round_capacity = min(
            c.drainer.data_wpq.capacity, c.drainer.posmap_wpq.capacity
        )
        if slots <= round_capacity:
            rounds = [list(range(slots))]
        else:
            rounds, lines, wires = self._ordered_rounds(
                lines, wires, placed, slot_of, round_capacity
            )

        # Associate each dirty entry with the round that writes its block,
        # so data and metadata commit in the same atomic round — an entry
        # committing *before* its block is exactly the Section-3.3 Case-1b
        # hazard.  Live entries ride the live copy's round; graduated
        # labels (stash-hit writes) ride the backup's round.  Entries with
        # no matching write anywhere (Naive's per-dummy-slot padding)
        # carry no consistency obligation and spread across rounds.
        # Per-level write-back release (the window scheduler's segment-
        # hazard input): ordered rounds flush at successive cycles, so a
        # tree level is released at the flush finish of the round carrying
        # its slot lines (slot index // Z).  Bounce lines are not path
        # slots and impose no release.
        release = [0] * (c.tree.height + 1)

        tagged = [(address, path, False) for address, path in dirty_entries]
        if self._graduate is not None:
            address, path = self._graduate
            tagged.append((address, path, True))
            self._graduate = None
        all_keys = set(slot_key.values())
        remaining = [e for e in tagged if (e[0], e[2]) in all_keys]
        padding = [e for e in tagged if (e[0], e[2]) not in all_keys]
        persisted: List[Tuple[int, int]] = []
        for round_slots in rounds:
            keys = set(map(slot_key.get, round_slots))
            round_entries = [e for e in remaining if (e[0], e[2]) in keys]
            remaining = [e for e in remaining if (e[0], e[2]) not in keys]
            room = max(0, c.drainer.posmap_wpq.capacity - len(round_entries))
            round_entries.extend(padding[:room])
            padding = padding[room:]

            # 5-B: "start" signal, push data + metadata into the WPQs.
            c.drainer.start()
            c._checkpoint("step5:round-open")
            c.drainer.push_blocks(
                [lines[i] for i in round_slots], [wires[i] for i in round_slots]
            )
            c.drainer.push_posmap_entries(
                [self._entry_line(address) for address, _, _ in round_entries],
                [(address, path) for address, path, _ in round_entries],
            )
            c._checkpoint("step5:before-end")

            # 5-C: "end" signal — the round is now atomic — then flush.
            c.drainer.end()
            c._checkpoint("step5:after-end")
            mem_start = c.clock.core_to_mem(c.now)
            round_finish = c.drainer.flush(
                mem_start, posmap_kind=self._posmap_persist_kind()
            )
            for level in sorted({i // z for i in round_slots if i < slots}):
                if round_finish > release[level]:
                    release[level] = round_finish
            persisted.extend(
                (address, path) for address, path, _bound in round_entries
            )

        # Padding entries that found no room alongside the data rounds
        # (Naive-PS pushes one entry per slot — Z*(L+1) of them — which a
        # small metadata WPQ cannot absorb in the data rounds alone) drain
        # in extra metadata-only rounds.  They carry no block/entry
        # lock-step obligation, so an entries-only round is safe; it just
        # must respect the WPQ capacity, which the old code overflowed by
        # dumping every leftover entry into the final data round.
        posmap_capacity = c.drainer.posmap_wpq.capacity
        while padding:
            chunk = padding[:posmap_capacity]
            padding = padding[posmap_capacity:]
            c.drainer.start()
            c._checkpoint("step5:round-open")
            c.drainer.push_posmap_entries(
                [self._entry_line(address) for address, _, _ in chunk],
                [(address, path) for address, path, _ in chunk],
            )
            c._checkpoint("step5:before-end")
            c.drainer.end()
            c._checkpoint("step5:after-end")
            mem_start = c.clock.core_to_mem(c.now)
            c.drainer.flush(mem_start, posmap_kind=self._posmap_persist_kind())
            persisted.extend(
                (address, path) for address, path, _bound in chunk
            )

        for address, path in persisted:
            # Only retire a pending remap that this eviction actually made
            # durable (Naive-PS-ORAM also pushes non-dirty entries; a
            # graduated label differs from the fresh pending one and stays).
            if c.temp_posmap.get(address) == path:
                c.temp_posmap.pop(address)
        self._c_posmap_persisted.add(len(persisted))
        c._wb_level_release = tuple(release)
        c._finish_eviction(placed)
        c._checkpoint("step5:after-flush")

    # ------------------------------------------------------------------
    # eviction helpers
    # ------------------------------------------------------------------

    def _ordered_rounds(
        self,
        lines: Sequence[int],
        wires: Sequence[bytes],
        placed: List[StashEntry],
        slot_of: Dict[int, int],
        capacity: int,
    ) -> Tuple[List[List[int]], List[int], List[bytes]]:
        """Split a path too large for the WPQs into ordered rounds (§4.2.3).

        Each slot write carries the block's current durable line (its
        old-line constraint) for :func:`plan_rounds`.  Returns the rounds
        as index lists plus the ``(line, wire)`` columns they index: the
        path's, followed by any bounce copies the plan staged.
        """
        c = self.c
        round_ = c._round
        old_line = {
            slot_of[id(entry.block)]: entry.source_line
            for entry in placed
            if not entry.block.is_dummy and entry.fetch_round == round_
        }
        writes = [
            SlotWrite(line, wire, old_line=old_line.get(i))
            for i, (line, wire) in enumerate(zip(lines, wires))
        ]
        planned = plan_rounds(writes, capacity, c._bounce_lines)
        c.stats.counter("ordered_eviction_rounds").add(len(planned))
        bounced = sum(len(r) for r in planned) - len(writes)
        if bounced:
            c.stats.counter("bounce_writes").add(bounced)
        index_of = {id(write): i for i, write in enumerate(writes)}
        lines = list(lines)
        wires = list(wires)
        rounds: List[List[int]] = []
        for round_writes in planned:
            indices = []
            for write in round_writes:
                index = index_of.get(id(write))
                if index is None:  # a bounce copy, not a path slot
                    index = len(lines)
                    lines.append(write.line_address)
                    wires.append(write.wire)
                indices.append(index)
            rounds.append(indices)
        return rounds, lines, wires

    def _dirty_entries_for(
        self, placed: List[StashEntry]
    ) -> List[Tuple[int, int]]:
        """Temporary-PosMap entries whose blocks become durable this round.

        An entry ``(a, l')`` may persist exactly when the live copy of ``a``
        is in this round's write-back with label ``l'`` — afterwards the
        persistent PosMap and the tree agree.  This is the dirty-only
        persistence that separates PS-ORAM from Naive-PS-ORAM.
        """
        c = self.c
        dirty: List[Tuple[int, int]] = []
        for entry in placed:
            if entry.is_backup:
                continue
            pending = c.temp_posmap.get(entry.block.address)
            if pending is not None and pending == entry.block.path_id:
                dirty.append((entry.block.address, pending))
        return dirty

    def _posmap_persist_kind(self) -> RequestKind:
        """Traffic class for PosMap entry flushes (hook for variants)."""
        return RequestKind.PERSIST

    def _entry_line(self, address: int) -> int:
        """NVM line a PosMap entry write targets.

        Padding entries (sentinel address -1, Naive-PS-ORAM) rotate over
        the PosMap region so their timed writes spread across banks the way
        real entry writes would.
        """
        c = self.c
        region = c.persistent_posmap.region
        if address >= 0:
            return region.entry_address(address)
        self._pad_cursor += 1
        lines = max(1, region.size_bytes // c.oram_config.block_bytes)
        return region.base + (self._pad_cursor % lines) * c.oram_config.block_bytes

    def _commit_posmap_entry(self, address: int, path_id: int) -> int:
        """Apply one drained entry: persistent image + on-chip mirror."""
        c = self.c
        line_address = c.persistent_posmap.write_entry(address, path_id)
        c.posmap.set(address, path_id)
        return line_address

    def _relieve_temp_posmap(self) -> None:
        """Free a temporary-PosMap slot via a background eviction.

        The oldest pending entry's block is, by invariant, still live in the
        stash; reading and evicting the block's *new* path writes it out
        durably, which drains the entry.  The background access looks like
        any other ORAM access on the bus (a uniformly random path), so no
        information leaks.
        """
        c = self.c
        oldest = c.temp_posmap.oldest()
        if oldest is None:
            return
        address, pending_path = oldest
        c.stats.counter("background_evictions").add()
        mem_start = c.clock.core_to_mem(c.now)
        blocks, mem_finish = c.tree.read_path(pending_path, mem_start)
        c.now = c.clock.mem_to_core(mem_finish)
        c.now += c.engine.batch_latency_cycles(len(blocks))
        c._absorb_blocks(blocks, target_address=address)
        c._evict(pending_path)
        if address in c.temp_posmap:
            # The block could not be placed even on its own path — only
            # possible under extreme stash pressure.  Give up loudly rather
            # than silently violating the durability contract.
            raise RecoveryError(
                f"background eviction failed to drain entry for block {address}"
            )

    # ------------------------------------------------------------------
    # crash / recovery (Section 4.3)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power loss: ADR completes committed WPQ rounds, SRAM vanishes."""
        c = self.c
        c.drainer.crash_flush()
        c.temp_posmap.clear()
        c.stash.clear()
        c.posmap.clear()  # on-chip mirror; the persistent image survives
        c.stats.counter("crashes").add()

    def recover(self) -> bool:
        """Rebuild the on-chip state from the persistent image.

        The stash and temporary PosMap restart empty — every block they held
        has a durable copy reachable through the persistent PosMap (the
        backup-block invariant).  Only the PosMap mirror needs rebuilding.
        """
        c = self.c
        c.posmap.clear()
        for address, path_id in c.persistent_posmap.iter_written_entries():
            c.posmap.set(address, path_id)
        self._restore_version_counter()
        self._restore_bounce_blocks()
        c.stats.counter("recoveries").add()
        return True

    def _restore_bounce_blocks(self) -> None:
        """Re-insert bounce-region copies orphaned by a mid-chain crash.

        A bounce copy matters only when the crash cut an ordered-eviction
        chain after the block's old slot was overwritten but before its new
        slot committed: then the bounce line holds the only durable copy.
        The copy is valid iff the PosMap still maps the block to the bounce
        copy's label and no on-path copy has an equal-or-newer version; a
        valid copy is placed into a free slot on its path.
        """
        c = self.c
        for line in c._bounce_lines:
            wire = c.memory.load_line(line)
            if wire is None or len(wire) != c.codec.wire_bytes:
                continue
            block = c.codec.decode(wire)
            if block.is_dummy:
                continue
            if c.posmap.get(block.address) != block.path_id:
                continue  # stale bounce copy from an older eviction
            newest_on_path = -1
            for candidate in c.tree.read_path_headers(block.path_id):
                if candidate.address == block.address and candidate.path_id == block.path_id:
                    newest_on_path = max(newest_on_path, candidate.version)
            if newest_on_path >= block.version:
                continue  # the tree already holds this (or a newer) copy
            self._place_block_functionally(block)
            c.stats.counter("bounce_blocks_restored").add()
            c.memory.store_line(line, b"")

    def _place_block_functionally(self, block: Block) -> None:
        """Put a recovered block into a free slot on its path (recovery only)."""
        c = self.c
        for level in range(c.tree.height, -1, -1):
            b_idx = bucket_index(block.path_id, level, c.tree.height)
            for slot in range(c.tree.z):
                resident = c.tree.load_slot(b_idx, slot)
                if resident.is_dummy:
                    c.tree.store_slot(b_idx, slot, block)
                    return
        raise RecoveryError(
            f"no free slot on path {block.path_id} to restore block "
            f"{block.address} from the bounce region"
        )

    def supports_crash_consistency(self) -> bool:
        return True

    def crash_points(self) -> Tuple[str, ...]:
        return PS_CRASH_POINTS

    def integrity_discipline(self) -> str:
        """Dirty-subtree batched persistence, sharing the WPQ/ADR domain."""
        return "lazy"


class NaiveFlushAllPolicy(DirtyEntryPSPolicy):
    """Naive-PS-ORAM: flush-all PosMap persistence (Section 4.2.2 footnote).

    Identical to PS-ORAM except in what it pushes into the PosMap WPQ:
    instead of only the *dirty* entries, it persists one PosMap entry for
    **every** slot written on the eviction path — ``Z * (L + 1)``
    non-coalesced entry writes per access.
    """

    def _dirty_entries_for(
        self, placed: List[StashEntry]
    ) -> List[Tuple[int, int]]:
        """Persist an entry for every slot on the path, not just dirty ones.

        Live placed blocks persist their architecturally current mapping.
        The remaining slots up to ``Z * (L + 1)`` — dummies and backup
        copies — become padding entry writes (sentinel address -1): the
        line write happens (that is the overhead being measured) but no
        mapping changes, so a padding write can never regress a real entry.
        """
        c = self.c
        entries: List[Tuple[int, int]] = []
        for entry in placed:
            if entry.is_backup:
                continue
            address = entry.block.address
            pending = c.temp_posmap.get(address)
            path = pending if pending is not None else c.posmap.get(address)
            entries.append((address, path))
        padding = c.tree.path_slots - len(entries)
        entries.extend((-1, 0) for _ in range(max(0, padding)))
        return entries

    def integrity_discipline(self) -> str:
        """Flush-all spirit: a full ancestor-path write per dirty leaf."""
        return "eager"


class RecursiveDirtyEntryPSPolicy(DirtyEntryPSPolicy):
    """Rcr-PS-ORAM: the recursive flavour (paper Sections 4.4, 5.1).

    The data tree runs the PS protocol; the posmap tree is its own
    PS-ORAM instance; a data-block remap is written into the posmap tree
    at access time, guarded by a persistent **intent log** (one line
    write per access) that recovery replays to close the Section-3.3
    Case-1 hazard.
    """

    def remap(self, address: int) -> Tuple[int, int]:
        c = self.c
        c._checkpoint("step2:before-remap")
        old_path = c.posmap.get(address)
        new_path = c.rng.randrange(c.posmap.num_leaves)
        # 1. Persist the intent (one line write) *before* the posmap tree
        #    learns the new path — recovery can then always reconcile.
        #    The write is durable once the WPQ accepts it (ADR), so the
        #    access does not wait for it to reach the NVM.
        c.intent_log.append(address, old_path, new_path, c.clock.core_to_mem(c.now))
        c._checkpoint("step2:after-intent")
        # 2. Timed posmap-tree read-modify-write, like Rcr-Baseline.
        c.posmap.set(address, new_path)
        c.posmap_oram.now = c.now
        c.posmap_oram.lookup_update(address, new_path)
        c.now = c.posmap_oram.now
        c.stats.counter("temp_posmap_inserts").add()
        c._checkpoint("step2:after-remap")
        return old_path, new_path

    def _dirty_entries_for(
        self, placed: List[StashEntry]
    ) -> List[Tuple[int, int]]:
        """No flat-region entry flushes: the posmap tree is the PosMap home."""
        return []

    def _posmap_persist_kind(self) -> RequestKind:
        return RequestKind.POSMAP

    # -- crash / recovery (Section 4.3, recursive flavour) -----------------

    def recover(self) -> bool:
        """Recover posmap tree, data mirror, then reconcile intents."""
        c = self.c
        if not c.posmap_oram.controller.recover():
            return False
        self._rebuild_posmap_mirror()
        self._restore_version_counter()
        c.intent_log.restore_sequence()
        self._reconcile_intents()
        c.stats.counter("recoveries").add()
        return True

    def _rebuild_posmap_mirror(self) -> None:
        """Walk the posmap tree functionally and rebuild the on-chip mirror.

        For each posmap block, the copies on its (recovered) path are
        decoded and the highest-version valid one supplies the entries.
        """
        c = self.c
        c.posmap.clear()
        inner = c.posmap_oram.controller
        pm_tree = inner.tree
        entries_per_block = c.posmap_oram.entries_per_block
        seen_versions = {}
        best_blocks = {}
        for bucket_idx in range(pm_tree.region.num_buckets):
            for slot in range(pm_tree.z):
                line = pm_tree.region.slot_address(bucket_idx, slot)
                wire = c.memory.load_line(line)
                if wire is None:
                    continue
                block = pm_tree.codec.decode(wire, line)
                if block.is_dummy:
                    continue
                expected = inner.posmap.get(block.address)
                if block.path_id != expected:
                    continue  # stale copy off the architectural path
                if block.version > seen_versions.get(block.address, -1):
                    seen_versions[block.address] = block.version
                    best_blocks[block.address] = block
        for pb_index, block in best_blocks.items():
            for slot in range(entries_per_block):
                address = pb_index * entries_per_block + slot
                if address >= c.posmap.num_entries:
                    break
                path = c.posmap_oram._decode(block.data, slot, address)
                if path != c.posmap.initial_path(address):
                    c.posmap.set(address, path)

    def _reconcile_intents(self) -> None:
        """Resolve every logged intent against the tree's actual content.

        For each intent (newest record wins per address), the candidate
        paths {current entry, old, new} are scanned for copies of the block;
        the highest-version copy whose header matches the path it sits on is
        authoritative, and the mirror entry is pointed at it.
        """
        c = self.c
        latest = {}
        for seq, address, old_path, new_path in c.intent_log.records():
            latest[address] = (seq, old_path, new_path)
        for address, (_, old_path, new_path) in sorted(latest.items()):
            if address >= c.posmap.num_entries:
                continue
            current = c.posmap.get(address)
            candidates = {current, old_path, new_path}
            best_block = None
            # sorted(): ties between equal-version copies on different
            # paths must resolve the same way in every process.
            for path in sorted(candidates):
                block = self._find_copy_on_path(address, path)
                if block is not None and (
                    best_block is None or block.version > best_block.version
                ):
                    best_block = block
            if best_block is not None and best_block.path_id != current:
                c.posmap.set(address, best_block.path_id)
                c.stats.counter("intents_repaired").add()

    def _find_copy_on_path(self, address: int, path_id: int) -> Optional[Block]:
        """Highest-version copy of ``address`` on ``path_id`` whose header
        claims that very path (functional scan, recovery-time only)."""
        c = self.c
        best: Optional[Block] = None
        for bucket_idx in path_bucket_indices(path_id, c.tree.height):
            for slot in range(c.tree.z):
                line = c.tree.region.slot_address(bucket_idx, slot)
                wire = c.memory.load_line(line)
                if wire is None:
                    continue
                block = c.tree.codec.decode_header(wire, line)
                if block.is_dummy or block.address != address:
                    continue
                if block.path_id != path_id:
                    continue
                if best is None or block.version > best.version:
                    full = c.tree.codec.decode(wire, line)
                    best = full
        return best

    def crash_points(self) -> Tuple[str, ...]:
        return RCR_CRASH_POINTS
