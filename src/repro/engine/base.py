"""The phase-structured ORAM access pipeline shared by every hierarchy.

Every evaluated system — Path ORAM with a flat or recursive PosMap,
plain NVM — drives its accesses through the single
:meth:`AccessEngine.access` implementation below.  The pipeline is a
fixed sequence of named phases::

    position lookup -> remap -> fetch -> absorb -> program op
                    -> eviction plan -> write-back -> persist commit

Hierarchies supply the *mechanics* of each phase
(`_fetch_blocks`, `_absorb_fetched`, `_evict`, ...); the
attached :class:`~repro.engine.policy.PersistencePolicy` supplies the
*persistence semantics* (what is durable when, what happens on crash).
The paper's protocol (temporary PosMap -> backup block -> dual-WPQ
drainer rounds) is one such policy, layered on an otherwise ordinary
access loop — exactly the framing of Section 4.2.

Phase boundaries are announced through :meth:`AccessEngine._checkpoint`
with the labels in :data:`PIPELINE_PHASES`, so the crash simulator can
cut power at any boundary on any variant without grepping controller
internals.  Policies add their own finer-grained labels (the historical
``step2:*``/``step5:*`` points) via
:meth:`~repro.engine.policy.PersistencePolicy.crash_points`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import InvalidAddressError

if TYPE_CHECKING:  # repro.oram imports engine.base; keep the cycle lazy
    from repro.oram.block import Block
    from repro.oram.stash import StashEntry

#: The named pipeline phase boundaries, in access order.  A crash armed
#: at ``phase:X`` fires just *before* phase X runs (the checkpoint is
#: announced on entry), except ``phase:persist-commit`` which fires
#: after the write-back completed — i.e. after the policy considers the
#: access durable.
PIPELINE_PHASES = (
    "phase:position-lookup",
    "phase:remap",
    "phase:fetch",
    "phase:absorb",
    "phase:program-op",
    "phase:evict-plan",
    "phase:write-back",
    "phase:persist-commit",
)

#: Sort key for eviction-planner candidates: (resident, depth), ignoring
#: the entry itself so ties keep stash order (stable sort).
_PLAN_SORT_KEY = operator.itemgetter(0, 1)


@dataclass(frozen=True)
class CrashPointInfo:
    """Metadata for one crash-injection label a controller can fire.

    ``origin`` records which layer announces the label: ``"engine"`` for
    the variant-independent pipeline phase boundaries, ``"policy"`` for
    the persistence policy's protocol-internal checkpoints (the
    historical ``step2:*``/``step5:*`` points), and
    ``"integrity"`` for the integrity domain's persist-commit window
    (:data:`repro.integrity.domain.INTEGRITY_CRASH_POINTS`).  The crash
    conformance matrix journals this so failures can be bucketed by
    layer without string-prefix guessing.
    """

    label: str
    origin: str  # "engine" | "policy" | "integrity"


@dataclass
class AccessResult:
    """Outcome of one ORAM access.

    ``data`` is the block content *before* the access took effect: for a
    read that is the value read; for a write (or read-modify-write) it is
    the previous content, giving callers swap semantics for free.
    """

    address: int
    is_write: bool
    data: bytes
    stash_hit: bool
    old_path: int
    new_path: int
    start_cycle: int
    finish_cycle: int
    #: Core cycle at which the path fetch (phase 3) completed; the window
    #: scheduler overlaps the next access's fetch with everything after
    #: this point.  Equals ``finish_cycle`` for stash-hit short circuits.
    fetch_finish_cycle: int = -1
    #: Per-tree-level ``(arrival, finish)`` memory-cycle spans of the path
    #: fetch, root-first — the fetch half of the segment-level timing
    #: decomposition (docs/SCHEDULER.md).  Empty for stash hits and for
    #: hierarchies that do not report a split fetch.
    fetch_level_spans: tuple = ()
    #: Per-tree-level memory cycle at which the write-back round that
    #: wrote that level's bucket completed, root-first — the write-back
    #: half of the decomposition.  A younger access that shares a bucket
    #: segment with this access must not fetch that level before its
    #: release cycle.  Empty when the policy does not decompose its
    #: write-back (stash hits).
    writeback_level_release: tuple = ()

    @property
    def latency_core_cycles(self) -> int:
        return self.finish_cycle - self.start_cycle


class AccessEngine:
    """Shared base of every controller: one access loop, many variants.

    Subclasses (the hierarchies) implement the mechanics hooks; the
    attached ``self.policy`` decides persistence behaviour.  The
    class carries **no** ``__init__`` — each hierarchy builds its own
    state and finishes with ``self.policy.attach(self)``.
    """

    #: Fixed on-chip pipeline cost per access (stash CAM + PosMap SRAM +
    #: address logic), in core cycles.  SRAM structures are fast; the
    #: FullNVM variants replace this with timed NVM accesses.
    ONCHIP_LOOKUP_CYCLES = 4

    #: Injection point for the crash harness (:mod:`repro.crashsim`):
    #: when set, called with a label at every announced checkpoint; it
    #: raises ``SimulatedCrash`` to unwind.  Class-level default so that
    #: *every* engine-driven variant — including the volatile baselines
    #: and the eADR/FullNVM strawmen — is injectable without each
    #: hierarchy re-declaring the attribute.
    crash_hook = None

    #: The attached integrity domain (:mod:`repro.integrity.domain`), or
    #: None when the variant runs without integrity metadata.  Class-level
    #: default keeps the integrity-off hot path a single attribute test
    #: and every digest fixture byte-identical.
    integrity = None

    #: Scheduler-imposed per-level fetch floors (memory cycles,
    #: root-first), set by the window scheduler just before ``access``
    #: and consumed (and cleared) by the hierarchy's path fetch: the
    #: fetch of level ``l`` must not arrive before ``floors[l]``.  The
    #: class-level None keeps the serial hot path a single attribute
    #: test and window-1 timing byte-identical.
    _fetch_level_floors = None

    #: Per-level write-back release (memory cycles, root-first) reported
    #: by the persistence policy's eviction for the access in flight;
    #: the engine moves it into the :class:`AccessResult` and clears it.
    _wb_level_release = None

    #: Per-level fetch spans reported by the hierarchy's path fetch for
    #: the access in flight (see :attr:`AccessResult.fetch_level_spans`).
    _fetch_level_spans = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def read(self, address: int, start_cycle: Optional[int] = None) -> AccessResult:
        """Obliviously read one block."""
        return self.access(address, is_write=False, data=None, start_cycle=start_cycle)

    def write(self, address: int, data: bytes, start_cycle: Optional[int] = None) -> AccessResult:
        """Obliviously write one block."""
        return self.access(address, is_write=True, data=data, start_cycle=start_cycle)

    def read_modify_write(
        self, address: int, mutator, start_cycle: Optional[int] = None
    ) -> AccessResult:
        """One ORAM access that atomically transforms the block payload.

        ``mutator(old_payload) -> new_payload`` runs on-chip after the fetch.
        The result carries the *old* payload.  Used by the recursive PosMap
        layer to update one packed entry in a single access.
        """
        return self.access(address, is_write=True, mutator=mutator, start_cycle=start_cycle)

    def access(
        self,
        address: int,
        is_write: bool,
        data: Optional[bytes] = None,
        start_cycle: Optional[int] = None,
        mutator=None,
    ) -> AccessResult:
        """Perform one full access through the phase pipeline."""
        payload = self._validate_request(address, is_write, data, mutator)
        start = self.now if start_cycle is None else max(self.now, start_cycle)
        self.now = start + self.ONCHIP_LOOKUP_CYCLES
        self._count_access(is_write)
        self._round += 1

        self._checkpoint("phase:position-lookup")
        hit = self._lookup_phase(address, is_write, payload, mutator, start)
        if hit is not None:
            return hit

        self._checkpoint("phase:remap")
        old_path, new_path = self._remap(address)

        self._checkpoint("phase:fetch")
        fetched = self._fetch_blocks(address, old_path)
        fetch_finish = self.now
        fetch_level_spans = self._fetch_level_spans
        if fetch_level_spans is not None:
            self._fetch_level_spans = None
        else:
            fetch_level_spans = ()

        self._checkpoint("phase:absorb")
        target = self._absorb_fetched(fetched, address, old_path, new_path)

        self._checkpoint("phase:program-op")
        result_data = self._apply_program_op(target, is_write, payload, mutator)
        self._after_fetch(target, old_path, new_path)

        self._checkpoint("phase:evict-plan")
        self._checkpoint("phase:write-back")
        self._evict(old_path)
        wb_level_release = self._wb_level_release
        if wb_level_release is not None:
            self._wb_level_release = None
        else:
            wb_level_release = ()
        self._checkpoint("phase:persist-commit")
        if self.integrity is not None:
            self.integrity.on_persist_commit()

        return AccessResult(
            address=address,
            is_write=is_write,
            data=result_data,
            stash_hit=False,
            old_path=old_path,
            new_path=new_path,
            start_cycle=start,
            finish_cycle=self.now,
            fetch_finish_cycle=fetch_finish,
            fetch_level_spans=fetch_level_spans,
            writeback_level_release=wb_level_release,
        )

    # ------------------------------------------------------------------
    # phase: validate + position lookup
    # ------------------------------------------------------------------

    def _validate_request(self, address, is_write, data, mutator) -> Optional[bytes]:
        """Address + payload validation; returns the padded payload."""
        self._check_address(address)
        if mutator is not None:
            if data is not None:
                raise ValueError("pass either data or mutator, not both")
            return None
        return self._normalize_payload(is_write, data)

    def _lookup_phase(self, address, is_write, payload, mutator, start) -> Optional[AccessResult]:
        """Stash lookup; a permitted hit short-circuits the pipeline.

        The baseline policy always short-circuits (paper step 1); the
        PS policies force a full access for writes so an acknowledged
        write is always durable by the time the access returns.
        """
        entry = self.stash.find(address)
        if entry is None:
            return None
        if not self.policy.allow_stash_hit(is_write or mutator is not None):
            return None
        result_data = self._apply_program_op(entry, is_write, payload, mutator)
        self._count_stash_hit()
        return AccessResult(
            address=address,
            is_write=is_write,
            data=result_data,
            stash_hit=True,
            old_path=entry.block.path_id,
            new_path=entry.block.path_id,
            start_cycle=start,
            finish_cycle=self.now,
            fetch_finish_cycle=self.now,
        )

    def _count_access(self, is_write: bool) -> None:
        """Hierarchy hook: bump the per-access counters."""
        raise NotImplementedError

    def _count_stash_hit(self) -> None:
        """Hierarchy hook: bump the stash-hit counter."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # phase: remap
    # ------------------------------------------------------------------

    def _remap(self, address: int) -> Tuple[int, int]:
        """Look up the current path and assign a fresh one (policy hook)."""
        return self.policy.remap(address)

    def _remap_mechanics(self, address: int) -> Tuple[int, int]:
        """The hierarchy's raw remap: draw a fresh leaf, record it.

        Baseline behaviour overwrites the volatile PosMap in place —
        exactly the behaviour Section 3.3 shows to be unrecoverable;
        persistence policies replace :meth:`_remap` wholesale instead.
        """
        old_path = self._position_of(address)
        new_path = self.rng.randrange(self.posmap.num_leaves)
        self._remap_update(address, new_path, old_path)
        return old_path, new_path

    def _remap_update(self, address: int, new_path: int, old_path: int) -> None:
        """Record the freshly drawn path id (recursive posmaps override)."""
        self.posmap.set(address, new_path)

    def _position_of(self, address: int) -> int:
        """Current path id for an address (pending remaps take priority)."""
        pending = self.policy.pending_position(address)
        if pending is not None:
            return pending
        return self.posmap.get(address)

    # ------------------------------------------------------------------
    # phase: fetch + absorb (hierarchy hooks)
    # ------------------------------------------------------------------

    def _fetch_blocks(self, address: int, path_id: int):
        """Timed fetch of the target's path/buckets; returns raw blocks."""
        raise NotImplementedError

    def _absorb_fetched(self, fetched, address, old_path, new_path) -> StashEntry:
        """Move fetched live blocks into the stash; return the target entry."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # phase: program op + header update
    # ------------------------------------------------------------------

    def _apply_program_op(
        self,
        entry: StashEntry,
        is_write: bool,
        payload: Optional[bytes],
        mutator=None,
    ) -> bytes:
        """Apply the program's read or write to the stash entry.

        Returns the data handed back to the program: the (pre-mutation)
        block content.
        """
        old_data = entry.block.data
        if mutator is not None:
            payload = self._normalize_payload(True, mutator(old_data))
            is_write = True
        if is_write:
            assert payload is not None
            entry.block = type(entry.block)(
                address=entry.block.address,
                path_id=entry.block.path_id,
                data=payload,
                version=self._next_version(),
            )
            entry.dirty = True
        return old_data

    def _after_fetch(self, target: StashEntry, old_path: int, new_path: int) -> None:
        """Update the target's header path id, bracketed by policy hooks.

        The dirty-entry PS policy creates the backup (shadow) block in
        :meth:`~repro.engine.policy.PersistencePolicy.pre_relabel`.
        """
        self.policy.pre_relabel(target, old_path, new_path)
        target.block = type(target.block)(
            address=target.block.address,
            path_id=new_path,
            data=target.block.data,
            version=self._next_version(),
        )
        self.policy.post_relabel(target, old_path, new_path)

    # ------------------------------------------------------------------
    # phase: eviction plan + write-back
    # ------------------------------------------------------------------

    def _evict(self, path_id: int) -> None:
        """Evict onto ``path_id`` (policy decides durability semantics)."""
        self.policy.evict(path_id)

    def _plan_eviction(
        self, path_id: int
    ) -> Tuple[List[List[Block]], List[StashEntry]]:
        """Greedy deepest-first assignment of stash entries onto a path.

        Returns ``(assignment, placed_entries)``; ``assignment[level]`` holds
        the blocks written into the bucket at that level (dummy padding is
        applied by the bucket writer).
        """
        height = self.tree.height
        z = self.tree.z
        assignment: List[List[Block]] = [[] for _ in range(height + 1)]
        placed: List[StashEntry] = []
        # Blocks fetched from the current path (and backup blocks, whose
        # label *is* the current path) are placed first: their only durable
        # copy is being overwritten by this very write-back, so they must
        # not lose a slot race against long-resident stash blocks (the
        # Figure-3 hazard).  Within each class, deepest-first.
        #
        # The deepest legal level (lowest_common_level, inlined to its
        # XOR/bit-length form) is computed once per entry and reused for
        # both the sort key and the placement scan.
        round_ = self._round
        decorated = []
        for entry in self.stash.entries():
            diff = path_id ^ entry.block.path_id
            depth = height if diff == 0 else height - diff.bit_length()
            resident = entry.is_backup or entry.fetch_round == round_
            decorated.append((resident, depth, entry))
        decorated.sort(key=_PLAN_SORT_KEY, reverse=True)
        for _resident, deepest, entry in decorated:
            for level in range(deepest, -1, -1):
                bucket = assignment[level]
                if len(bucket) < z:
                    bucket.append(entry.block)
                    placed.append(entry)
                    break
        return assignment, placed

    # ------------------------------------------------------------------
    # crash semantics (delegated to the policy)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power loss: the policy decides what survives.

        The integrity domain flushes *last*: the policy's ADR drain (and
        any dependent controllers') may still store lines, and the root
        witness must cover the image as it lands on the dead machine.
        """
        self.policy.crash()
        self._crash_dependents()
        if self.integrity is not None:
            self.integrity.crash_flush()

    def _crash_dependents(self) -> None:
        """Hierarchy hook: propagate the crash to attached components."""

    def recover(self) -> bool:
        """Attempt post-crash recovery (policy-defined).

        With an integrity domain attached, the surviving image is
        authenticated (uncached root recompute vs the persisted witness)
        *before* the policy repairs anything, and the witness is resealed
        over the repaired image afterwards — see docs/INTEGRITY.md.
        """
        if self.integrity is not None:
            self.integrity.begin_recovery()
        recovered = self.policy.recover()
        if recovered and self.integrity is not None:
            self.integrity.finish_recovery()
        return recovered

    def supports_crash_consistency(self) -> bool:
        """Whether acknowledged writes survive a crash."""
        return self.policy.supports_crash_consistency()

    def crash_points(self) -> Tuple[str, ...]:
        """All crash-injection labels this controller can fire."""
        return tuple(info.label for info in self.crash_point_metadata())

    def crash_point_metadata(self) -> Tuple[CrashPointInfo, ...]:
        """Every crash-injection label, annotated with its origin layer."""
        points = tuple(
            CrashPointInfo(label, "engine") for label in PIPELINE_PHASES
        ) + tuple(
            CrashPointInfo(label, "policy") for label in self.policy.crash_points()
        )
        if self.integrity is not None:
            points += tuple(
                CrashPointInfo(label, "integrity")
                for label in self.integrity.crash_points()
            )
        return points

    def _checkpoint(self, label: str) -> None:
        """Announce a named point to an armed crash injector, if any."""
        hook = getattr(self, "crash_hook", None)
        if hook is not None:
            hook(label)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.oram_config.num_logical_blocks:
            raise InvalidAddressError(
                f"address {address} outside ORAM capacity "
                f"[0, {self.oram_config.num_logical_blocks})"
            )

    def _normalize_payload(self, is_write: bool, data: Optional[bytes]) -> Optional[bytes]:
        if not is_write:
            if data is not None:
                raise ValueError("read access must not carry data")
            return None
        if data is None:
            raise ValueError("write access requires data")
        if len(data) > self.oram_config.block_bytes:
            raise ValueError(
                f"payload of {len(data)} bytes exceeds block size "
                f"{self.oram_config.block_bytes}"
            )
        return bytes(data) + bytes(self.oram_config.block_bytes - len(data))

    def _next_version(self) -> int:
        self._version += 1
        return self._version

    @property
    def traffic(self):
        """The NVM traffic meter (reads/writes by kind)."""
        return self.memory.traffic
