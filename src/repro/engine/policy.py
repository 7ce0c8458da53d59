"""Persistence policies: pluggable crash-consistency strategies.

A :class:`PersistencePolicy` is attached to exactly one controller
(:meth:`attach` stores the back-reference and installs any policy-owned
structures on it — temp PosMap, drainer, version line, ...).  The
engine's access pipeline calls into the policy at the points where the
evaluated systems differ:

* ``pending_position`` / ``allow_stash_hit`` / ``remap`` — how the
  position map is consulted and updated (temporary PosMap vs in-place).
* ``pre_relabel`` / ``post_relabel`` — backup (shadow) block creation
  around the target's header update.
* ``evict`` — how the write-back is made durable (posted writes vs
  bracketed dual-WPQ drainer rounds).
* ``crash`` / ``recover`` / ``supports_crash_consistency`` — what
  survives power loss and how state is rebuilt.

Concrete policies: :class:`VolatilePolicy` (baseline) here, and
``NaiveFlushAllPolicy`` / ``DirtyEntryPSPolicy`` (+ the recursive
specialization) in :mod:`repro.engine.ps`, ``EADRPolicy`` in
:mod:`repro.engine.eadr`, ``FullNVMPolicy`` in
:mod:`repro.engine.fullnvm`.
"""

from __future__ import annotations

from typing import Optional, Tuple


class PersistencePolicy:
    """Base strategy: hooks default to the baseline (volatile) behaviour."""

    def attach(self, controller) -> None:
        """Bind to ``controller`` and install policy-owned structures."""
        self.c = controller

    # ------------------------------------------------------------------
    # position map view
    # ------------------------------------------------------------------

    def pending_position(self, address: int) -> Optional[int]:
        """A not-yet-durable path id for ``address``, if one is buffered."""
        return None

    def allow_stash_hit(self, mutates: bool) -> bool:
        """Whether a stash hit may return without touching memory."""
        return True

    def remap(self, address: int) -> Tuple[int, int]:
        """Assign a fresh path id; returns ``(old_path, new_path)``."""
        return self.c._remap_mechanics(address)

    # ------------------------------------------------------------------
    # fetch / stash hooks
    # ------------------------------------------------------------------

    def on_absorb(self, blocks) -> None:
        """Called once per path/bucket fetch with the raw blocks."""

    def pre_relabel(self, target, old_path: int, new_path: int) -> None:
        """Called just before the target's header update."""

    def post_relabel(self, target, old_path: int, new_path: int) -> None:
        """Called just after the target's header update."""

    # ------------------------------------------------------------------
    # eviction / write-back
    # ------------------------------------------------------------------

    def evict(self, path_id: int) -> None:
        """Write stash contents back onto ``path_id`` (durability here)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # crash semantics
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power loss: every volatile structure is cleared.

        Baseline: the stash and the PosMap updates vanish — this is the
        unrecoverable situation of paper Section 3.3.
        """
        c = self.c
        c.stash.clear()
        c.posmap.clear()
        c.stats.counter("crashes").add()

    def recover(self) -> bool:
        """Attempt post-crash recovery (baseline: nothing to recover)."""
        return False

    def supports_crash_consistency(self) -> bool:
        """Whether acknowledged writes survive a crash."""
        return False

    def crash_points(self) -> Tuple[str, ...]:
        """Policy-specific crash-injection labels (inside write rounds)."""
        return ()

    # ------------------------------------------------------------------
    # integrity discipline (repro.integrity, docs/INTEGRITY.md)
    # ------------------------------------------------------------------

    def integrity_discipline(self) -> str:
        """How this policy persists integrity-tree updates.

        One of :data:`repro.integrity.domain.INTEGRITY_DISCIPLINES`:
        ``"none"`` (volatile tracking only — the baseline default),
        ``"eager"`` (full ancestor path per dirty leaf, the Naive straw
        man), ``"lazy"`` (one batched dirty-subtree propagation per
        persist-commit, the PS variants), ``"eadr"`` (nothing at runtime;
        the residual-energy flush persists the root).
        """
        return "none"

    def integrity_crash_points(self) -> Tuple[str, ...]:
        """Integrity-update labels this policy's discipline can fire.

        Only the disciplines that persist digests during the access
        (eager/lazy) open the persist-commit integrity window; "none"
        never persists and "eadr" only acts at crash time, so neither
        exposes an injectable label.
        """
        if self.integrity_discipline() in ("eager", "lazy"):
            from repro.integrity.domain import INTEGRITY_CRASH_POINTS

            return INTEGRITY_CRASH_POINTS
        return ()

    # ------------------------------------------------------------------
    # shared recovery helper
    # ------------------------------------------------------------------

    def _restore_version_counter(self) -> None:
        """Reload the persisted block-version high-water mark."""
        c = self.c
        line = c.memory.load_line(c._version_line)
        if line is not None:
            c._version = max(c._version, int.from_bytes(line[:8], "little"))


class VolatilePolicy(PersistencePolicy):
    """Baseline persistence: posted writes, nothing crash-consistent.

    Eviction writes are *posted*: the controller moves on once the
    encrypted blocks are handed to the memory controller, and the next
    access's path read naturally queues behind them on the channels.
    This matches write-buffered memory controllers and keeps the
    baseline comparable to PS-ORAM's WPQ-staged eviction.
    """

    def evict(self, path_id: int) -> None:
        c = self.c
        assignment, placed = c._plan_eviction(path_id)
        mem_start = c.clock.core_to_mem(c.now)
        # Encryption of the eviction candidates (pipelined).
        c.now += c.engine.batch_latency_cycles(sum(len(a) for a in assignment))
        finish = c.tree.write_path(path_id, assignment, mem_start)
        # One write burst covers the whole path, so every bucket segment is
        # released at the same mem cycle (window-scheduler hazard input).
        c._wb_level_release = (finish,) * (c.tree.height + 1)
        c._finish_eviction(placed)
