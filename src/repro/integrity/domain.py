"""The crash-consistent persistent integrity domain.

:class:`IntegrityDomain` turns the Merkle tree of
:mod:`repro.integrity.tree` from an advisory bolt-on into first-class
persistence traffic, following the Freij et al. streamlined-update model
(PAPERS.md): the integrity-update unit sits **inside** the ADR
persistence domain, so pending tree updates are completed by residual
energy at power loss — exactly like a committed WPQ round.

Pipeline integration (the :class:`~repro.engine.base.AccessEngine`
drives every hook):

* every functional line store below the protected bound refreshes the
  leaf MAC via the memory's ``line_observer`` — leaf updates accumulate
  *lazily* while phase ``write-back`` (and the drainer rounds inside it)
  run;
* at ``phase:persist-commit`` the dirty subtree is batch-propagated and
  the affected node lines are written out as timed
  :class:`~repro.mem.request.RequestKind.INTEGRITY` traffic, bracketed
  by the :data:`INTEGRITY_CRASH_POINTS` checkpoints; the **persisted
  root line is the commit witness** — a recovered image that does not
  recompute to the witness is not a recovered image;
* on :meth:`crash_flush` (power loss) the in-domain update unit
  finishes pending propagation and persists the root functionally, the
  same guarantee ADR gives a committed drainer round;
* on recovery, :meth:`begin_recovery` authenticates the surviving image
  (uncached recompute == persisted witness) *before* the persistence
  policy repairs anything, and :meth:`finish_recovery` reseals the
  witness over the repaired image.

Which updates are persisted *when* is the policy's **integrity
discipline** (:meth:`repro.engine.policy.PersistencePolicy.integrity_discipline`):

``"none"``
    Volatile baselines: the tree tracks and audits, nothing persists,
    recovery verification is vacuous (there is no witness to check).
``"eager"``
    Naive flush-all: every dirty leaf writes the node line of every node
    on its path, duplicates included — the per-line update stream a
    non-batched integrity engine would issue.
``"lazy"``
    The PS variants: one batched propagation per commit; each node line
    holding an affected digest is written exactly once, witness last.
``"eadr"``
    eADR: no runtime traffic at all — the whole tree rides the
    residual-energy flush, so only the crash-time root persist remains.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.integrity.tree import DIGEST_BYTES, MerkleIntegrityTree
from repro.mem.request import Access, RequestKind
from repro.util.stats import LazyCounter

#: Crash-injection labels the integrity domain fires inside the
#: persist-commit window (eager/lazy disciplines only; "none" never
#: persists and "eadr" only acts at crash time).
INTEGRITY_CRASH_POINTS = (
    "integrity:before-propagate",
    "integrity:after-propagate",
    "integrity:after-persist",
)

#: The recognised integrity disciplines a persistence policy can declare.
INTEGRITY_DISCIPLINES = ("none", "eager", "lazy", "eadr")

#: Default PRF key for the integrity tree (distinct from the data key).
DEFAULT_INTEGRITY_KEY = b"integrity-key"

_ROOT_SEQ_BYTES = 8


class IntegrityDomain:
    """Persistent integrity metadata bound to one controller.

    Layout: the tree covers the *protected region* ``[0, protect_bytes)``
    (the controller's data/posmap/scratch layout).  The digest lines live
    immediately above it: line 0 is the **root witness**
    (``seq || root``), then one line per sibling group of ``arity``
    digests, level-major from the root's level down to the leaves.
    Digest lines are outside the protected region, so persisting them
    never re-dirties the tree.
    """

    def __init__(self, controller, tree: MerkleIntegrityTree,
                 discipline: str = "lazy"):
        if discipline not in INTEGRITY_DISCIPLINES:
            raise ValueError(
                f"unknown integrity discipline {discipline!r}; "
                f"choose from {INTEGRITY_DISCIPLINES}"
            )
        self.c = controller
        self.tree = tree
        self.discipline = discipline
        self.protect_bytes = tree.base + tree.num_leaves * tree.line_bytes
        self.node_base = self.protect_bytes
        # Node-line offsets: the witness first, then each level's sibling
        # groups, root level down to the leaves.
        self._level_base = {}
        cursor = 1
        for level in range(tree.height, -1, -1):
            self._level_base[level] = cursor
            nodes = -(-tree.num_leaves // tree.arity ** level)
            cursor += -(-nodes // tree.arity)
        self.root_line = self.node_base
        self._seq = 0
        self._installed = False
        self._prev_observer = None
        #: Violations found by the last recovery verification pass; the
        #: conformance checker treats any entry as a failed recovery.
        self.recovery_violations: List[str] = []
        stats = controller.stats
        self._c_commits = LazyCounter(stats, "integrity_commits")
        self._c_node_writes = LazyCounter(stats, "integrity_node_writes")
        self._c_root_persists = LazyCounter(stats, "integrity_root_persists")
        self._c_crash_flushes = LazyCounter(stats, "integrity_crash_flushes")
        self._c_recoveries_verified = LazyCounter(stats, "integrity_recoveries_verified")

    # -- wiring ------------------------------------------------------------

    def install(self) -> None:
        """Register into the memory's observer chain and the engine."""
        if self._installed:
            return
        memory = self.c.memory
        self._prev_observer = memory.line_observer
        memory.line_observer = self._observe
        self.c.integrity = self
        self._installed = True
        # Seed leaf MACs for everything already written into the region.
        for address in memory.written_lines(0, self.protect_bytes):
            self.tree.update_line(address)

    def detach(self) -> None:
        """Unregister; idempotent (a second call is a no-op, not a bug)."""
        if not self._installed:
            return
        self.c.memory.line_observer = self._prev_observer
        self._prev_observer = None
        self.c.integrity = None
        self._installed = False

    def _observe(self, address: int) -> None:
        if address < self.protect_bytes:
            self.tree.update_line(address)
        if self._prev_observer is not None:
            self._prev_observer(address)

    @property
    def persists_root(self) -> bool:
        """Whether this discipline ever writes the root witness."""
        return self.discipline != "none"

    def crash_points(self) -> Tuple[str, ...]:
        """Labels the domain fires (mirrors the policy's declaration)."""
        return self.c.policy.integrity_crash_points()

    # -- node-line addressing ----------------------------------------------

    def node_address(self, level: int, index: int) -> int:
        """Byte address of the persisted line holding one node's digest:
        the line of its sibling group ``index // arity`` at ``level``."""
        return self._group_address(level, index // self.tree.arity)

    def _group_address(self, level: int, group: int) -> int:
        line = self._level_base[level] + group
        return self.node_base + line * self.tree.line_bytes

    def _root_payload(self) -> bytes:
        return self._seq.to_bytes(_ROOT_SEQ_BYTES, "little") + self.tree.node(
            self.tree.height, 0
        )

    def load_persisted_root(self) -> Optional[bytes]:
        """The last persisted root witness digest (None if never written)."""
        line = self.c.memory.load_line(self.root_line)
        if line is None or len(line) <= _ROOT_SEQ_BYTES:
            return None
        return line[_ROOT_SEQ_BYTES:_ROOT_SEQ_BYTES + DIGEST_BYTES]

    @property
    def root_sequence(self) -> int:
        """Commit sequence number carried by the root witness."""
        line = self.c.memory.load_line(self.root_line)
        if line is None or len(line) < _ROOT_SEQ_BYTES:
            return 0
        return int.from_bytes(line[:_ROOT_SEQ_BYTES], "little")

    # -- persist-commit ------------------------------------------------------

    def on_persist_commit(self) -> None:
        """Batch-propagate and persist the access's integrity updates.

        Called by the engine right after ``phase:persist-commit``.  The
        "none" and "eadr" disciplines do nothing here — the former never
        persists, the latter defers everything to the residual-energy
        flush — so neither fires the integrity checkpoints.
        """
        if self.discipline in ("none", "eadr"):
            return
        c = self.c
        dirty = self.tree.dirty_leaves
        c._checkpoint("integrity:before-propagate")
        touched = self.tree.propagate()
        c._checkpoint("integrity:after-propagate")
        if self.discipline == "eager":
            # One full ancestor path per dirty leaf, duplicates and all:
            # shared node lines are re-written once per leaf, which is the
            # whole overhead lazy batching removes.
            nodes: List[Tuple[int, int]] = []
            for leaf in dirty:
                nodes.append((0, leaf))
                nodes.extend(self.tree.ancestors(leaf))
        else:
            nodes = touched
        # A node's digest lives in the line of its sibling group.
        arity = self.tree.arity
        groups = [(level, index // arity) for level, index in nodes]
        if self.discipline == "lazy":
            groups = list(dict.fromkeys(groups))  # each line once, leaves first
        addresses = [self._group_address(level, group) for level, group in groups]
        datas: List[Optional[bytes]] = [
            b"".join(self.tree.group(level, group)) for level, group in groups
        ]
        # The root witness line is written last; its functional content
        # goes through _persist_root so the commit point is one discrete,
        # testable step (the write below is timing/traffic only).
        addresses.append(self.root_line)
        datas.append(None)
        mem_start = c.clock.core_to_mem(c.now)
        finish = c.memory.issue_path(
            addresses, Access.WRITE, mem_start, RequestKind.INTEGRITY, datas
        )
        c.now = c.clock.mem_to_core(finish)
        self._seq += 1
        self._persist_root()
        self._c_commits.add()
        self._c_node_writes.add(len(addresses))
        c._checkpoint("integrity:after-persist")

    def _persist_root(self) -> None:
        """Make the current root durable — the commit witness write.

        Kept as its own step so the mutation test can delete exactly the
        root persist and prove the conformance matrix notices.
        """
        self.c.memory.store_line(self.root_line, self._root_payload())
        self._c_root_persists.add()

    # -- crash / recovery ----------------------------------------------------

    def crash_flush(self) -> None:
        """Power loss: the in-domain update unit finishes its work.

        Like a committed WPQ round, pending propagation completes on
        residual energy and the root witness lands functionally (the
        machine is off — no timing).  Volatile ("none") trees simply
        vanish with the rest of SRAM.
        """
        if not self.persists_root:
            return
        self.tree.propagate()
        self._seq += 1
        self._persist_root()
        self._c_crash_flushes.add()

    def begin_recovery(self) -> None:
        """Authenticate the surviving image before anyone repairs it.

        Recomputes the root from scratch (no cached digests) and compares
        it against the persisted witness.  Runs *before* the persistence
        policy's ``recover()`` — recovery repairs (bounce-block restores,
        intent replays) legitimately rewrite lines, and they must not be
        able to mask pre-recovery corruption.
        """
        self.recovery_violations = []
        if not self.persists_root:
            return
        persisted = self.load_persisted_root()
        recomputed = self.tree.recompute_root()
        if persisted is None:
            self.recovery_violations.append(
                "integrity: no persisted root witness after crash — the "
                "commit/crash-flush root persist never happened"
            )
        elif persisted != recomputed:
            self.recovery_violations.append(
                "integrity: recovered image recomputes root "
                f"{recomputed.hex()} but the persisted witness is "
                f"{persisted.hex()} — recovered-but-unverifiable state"
            )
        else:
            self._c_recoveries_verified.add()

    def finish_recovery(self) -> None:
        """Reseal the witness over the repaired image.

        Recovery-time repairs were observed as ordinary line writes, so
        propagating and re-persisting the root re-covers them; the next
        crash verifies against the resealed witness.
        """
        self.tree.propagate()
        self._seq += 1
        self._persist_root()


def _protected_extent(controller) -> int:
    """Upper bound (bytes) of the controller's persistent data layout.

    Everything the protocol writes functionally must fall below this
    bound so the tree covers it: the main layout, the recursive intent
    log, and the version/bounce scratch lines.  The current image extent
    and a 1 MiB floor keep pre-existing content and late small
    allocations covered.
    """
    memory = controller.memory
    line_bytes = memory.line_bytes
    extent = max(
        (max(memory._image) + 1) * line_bytes if memory._image else line_bytes,
        getattr(getattr(controller, "layout", None), "total_bytes", 0) or 0,
        1 << 20,
    )
    intent_log = getattr(controller, "intent_log", None)
    if intent_log is not None:
        extent = max(extent, intent_log.base + intent_log.size_bytes)
    version_line = getattr(controller, "_version_line", None)
    if version_line is not None:
        extent = max(extent, version_line + line_bytes)
    bounce = getattr(controller, "_bounce_lines", None)
    if bounce:
        extent = max(extent, max(bounce) + line_bytes)
    # Round up to a whole line so the node region starts line-aligned.
    return -(-extent // line_bytes) * line_bytes


def enable_integrity(controller, key: bytes = DEFAULT_INTEGRITY_KEY,
                     discipline: Optional[str] = None) -> IntegrityDomain:
    """Attach a crash-consistent integrity domain to a controller.

    The discipline defaults to what the controller's persistence policy
    declares (:meth:`~repro.engine.policy.PersistencePolicy.integrity_discipline`);
    pass ``discipline`` to override (the bench forces ``"eager"`` onto ps
    to price the non-batched strawman).  Idempotent: a controller that
    already carries a domain returns it unchanged.
    """
    existing = getattr(controller, "integrity", None)
    if existing is not None:
        return existing
    policy = getattr(controller, "policy", None)
    if policy is None:
        raise ValueError(
            f"{type(controller).__name__} has no persistence policy — the "
            "integrity domain hooks the engine pipeline and cannot attach"
        )
    if discipline is None:
        discipline = policy.integrity_discipline()
    tree = MerkleIntegrityTree(
        controller.memory, base=0, size_bytes=_protected_extent(controller),
        key=key,
    )
    domain = IntegrityDomain(controller, tree, discipline)
    domain.install()
    return domain
