"""The crash-consistent persistent integrity domain.

:class:`IntegrityDomain` turns the integrity trees into first-class
persistence traffic, following the Freij et al. streamlined-update model
(PAPERS.md): the integrity-update unit sits **inside** the ADR
persistence domain, so pending tree updates are completed by residual
energy at power loss — exactly like a committed WPQ round.

Two kinds of tree cover the controller's persistent layout:

* every ORAM tree region (the data tree, plus each recursive PosMap tree)
  is its own Merkle tree, a
  :class:`~repro.integrity.buckets.BucketIntegrityTree` whose digests
  ride in the bucket lines the access writes anyway, so it adds no timed
  line;
* the small **residual region** left over (flat PosMap, version/bounce
  scratch lines, the intent log) is covered by the line-packed
  :class:`~repro.integrity.tree.MerkleIntegrityTree`, whose interior
  digests stay on chip: recovery rebuilds them from the image, so only
  the root witness is timed integrity traffic (leaf persistence with a
  rebuild).

Pipeline integration (the :class:`~repro.engine.base.AccessEngine`
drives every hook):

* every functional line store is routed to its tree via the memory's
  ``line_observer``; a store outside both the protected extent and the
  digest lines raises, so a layout the domain does not cover fails
  loudly instead of going unprotected;
* at ``phase:persist-commit`` both trees are batch-propagated and the
  witness is written out as timed
  :class:`~repro.mem.request.RequestKind.INTEGRITY` traffic, posted like
  a drainer round (durable once the WPQ accepts it, so the access does
  not wait for it), bracketed by the :data:`INTEGRITY_CRASH_POINTS`
  checkpoints; the **persisted
  root line is the commit witness** (``seq || Prf("R" || line-tree root
  || bucket roots in region order)``) — a recovered image that does not
  recompute to the witness is not a recovered image;
* on :meth:`crash_flush` (power loss) the in-domain update unit
  finishes pending propagation and persists the witness functionally,
  the same guarantee ADR gives a committed drainer round;
* on recovery, :meth:`begin_recovery` authenticates the surviving image
  (uncached recompute == persisted witness) *before* the persistence
  policy repairs anything, and :meth:`finish_recovery` reseals the
  witness over the repaired image.

Which updates are persisted *when* is the policy's **integrity
discipline** (:meth:`repro.engine.policy.PersistencePolicy.integrity_discipline`).
Bucket digests cost no line, so they are recomputed once per written
bucket under every discipline; the disciplines differ on the residual
tree only:

``"none"``
    Volatile baselines: the trees track and audit, nothing persists,
    recovery verification is vacuous (there is no witness to check).
``"eager"``
    Naive flush-all: every dirty residual leaf writes the group line of
    every node on its path, duplicates included — the per-line update
    stream a non-batched integrity engine would issue.
``"lazy"``
    The PS variants: one batched propagation per commit, then the witness
    alone — no group line, since recovery recomputes from the image.
``"eadr"``
    eADR: no runtime traffic at all — the whole tree rides the
    residual-energy flush, so only the crash-time root persist remains.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.prf import Prf
from repro.integrity.buckets import BucketIntegrityTree
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

#: Default PRF key for the integrity trees (distinct from the data key).
DEFAULT_INTEGRITY_KEY = b"integrity-key"

_ROOT_SEQ_BYTES = 8


class IntegrityDomain:
    """Persistent integrity metadata bound to one controller.

    Layout: the bucket trees cover the ORAM tree regions and the line
    tree covers the rest of ``[line_tree.base, protect_bytes)``, the
    controller's exact persistent extent.  The digest lines live
    immediately above it: line 0 is the **root witness**, then one line
    per sibling group of the line tree's ``arity`` digests, level-major
    from the root's level down to the leaves (only the eager discipline
    writes group lines).  Digest lines are outside the protected extent,
    so persisting them never re-dirties a tree.
    """

    def __init__(self, controller, line_tree: MerkleIntegrityTree,
                 bucket_trees: Sequence[BucketIntegrityTree],
                 discipline: str = "lazy", key: bytes = DEFAULT_INTEGRITY_KEY):
        if discipline not in INTEGRITY_DISCIPLINES:
            raise ValueError(
                f"unknown integrity discipline {discipline!r}; "
                f"choose from {INTEGRITY_DISCIPLINES}"
            )
        self.c = controller
        self.line_tree = line_tree
        self.bucket_trees = tuple(bucket_trees)
        self.discipline = discipline
        self.protect_bytes = line_tree.base + line_tree.num_leaves * line_tree.line_bytes
        self.node_base = self.protect_bytes
        # Node-line offsets: the witness first, then each level's sibling
        # groups, root level down to the leaves.
        self._level_base = {}
        cursor = 1
        for level in range(line_tree.height, -1, -1):
            self._level_base[level] = cursor
            nodes = -(-line_tree.num_leaves // line_tree.arity ** level)
            cursor += -(-nodes // line_tree.arity)
        self.root_line = self.node_base
        self.node_end = self.node_base + cursor * line_tree.line_bytes
        self._witness_prf = Prf(key, digest_size=DIGEST_BYTES).derive("witness")
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
        # Seed line MACs for everything already written into the extent
        # (and reject anything the extent does not cover).
        line_bytes = memory.line_bytes
        for line in sorted(memory.snapshot_image()):
            address = line * line_bytes
            tree = self._route(address)
            if tree is not None:
                tree.update_line(address)
        self._prev_observer = memory.line_observer
        memory.line_observer = self._observe
        self.c.integrity = self
        self._installed = True

    def detach(self) -> None:
        """Unregister; idempotent (a second call is a no-op, not a bug)."""
        if not self._installed:
            return
        self.c.memory.line_observer = self._prev_observer
        self._prev_observer = None
        self.c.integrity = None
        self._installed = False

    def _route(self, address: int):
        """The tree covering ``address``; None for a digest line.

        Raises on any other address: a store the domain does not cover
        would otherwise silently escape the witness.
        """
        for tree in self.bucket_trees:
            if tree.base <= address < tree.end:
                return tree
        if self.line_tree.base <= address < self.protect_bytes:
            return self.line_tree
        if self.node_base <= address < self.node_end:
            return None
        raise ValueError(
            f"store to {address:#x} is outside the integrity-protected extent "
            f"[{self.line_tree.base:#x}, {self.protect_bytes:#x}) and the "
            "ORAM tree regions — the layout has an unprotected region"
        )

    def _observe(self, addresses: List[int]) -> None:
        """Route one store's (or one write burst's) lines to their trees.

        A burst inside one bucket tree — every path write-back — is
        re-MACed in one :meth:`BucketIntegrityTree.update_lines` pass;
        anything else is routed line by line, in order.
        """
        lo = min(addresses)
        hi = max(addresses)
        for tree in self.bucket_trees:
            if tree.base <= lo and hi < tree.end:
                tree.update_lines(addresses)
                break
        else:
            for address in addresses:
                tree = self._route(address)
                if tree is not None:
                    tree.update_line(address)
        if self._prev_observer is not None:
            self._prev_observer(addresses)

    @property
    def persists_root(self) -> bool:
        """Whether this discipline ever writes the root witness."""
        return self.discipline != "none"

    def crash_points(self) -> Tuple[str, ...]:
        """Labels the domain fires (mirrors the policy's declaration)."""
        return self.c.policy.integrity_crash_points()

    # -- roots -------------------------------------------------------------

    def _combine(self, line_root: bytes, bucket_roots: Sequence[bytes]) -> bytes:
        return self._witness_prf.evaluate(b"R" + line_root + b"".join(bucket_roots))

    def propagate(self) -> None:
        """Bring every tree's cached digests up to date."""
        for tree in (*self.bucket_trees, self.line_tree):
            tree.propagate()

    @property
    def root(self) -> bytes:
        """The combined root the witness carries (after propagation)."""
        return self._combine(
            self.line_tree.root, [tree.root for tree in self.bucket_trees]
        )

    def recompute_root(self) -> bytes:
        """From-scratch combined root over the current image.

        Walks the written lines of the extent once, routes each to its
        tree, and recomputes every tree root without consulting a cache.
        """
        routed = {tree: [] for tree in (self.line_tree, *self.bucket_trees)}
        for address in self.c.memory.written_lines(0, self.protect_bytes):
            routed[self._route(address)].append(address)
        return self._combine(
            self.line_tree.recompute_root(routed[self.line_tree]),
            [tree.recompute_root(routed[tree]) for tree in self.bucket_trees],
        )

    def audit(self, expected_root: Optional[bytes] = None) -> List[int]:
        """Byte addresses of every tracked line whose content changed
        behind the domain's back; ``-1`` is appended when the combined
        root differs from ``expected_root``."""
        corrupt = sorted(
            address
            for tree in (self.line_tree, *self.bucket_trees)
            for address in tree.audit()
        )
        if expected_root is not None and expected_root != self.root:
            corrupt.append(-1)  # sentinel: root mismatch
        return corrupt

    # -- node-line addressing ----------------------------------------------

    def node_address(self, level: int, index: int) -> int:
        """Byte address of the persisted line holding one line-tree node's
        digest: the line of its sibling group ``index // arity`` at ``level``."""
        return self._group_address(level, index // self.line_tree.arity)

    def _group_address(self, level: int, group: int) -> int:
        line = self._level_base[level] + group
        return self.node_base + line * self.line_tree.line_bytes

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
        tree = self.line_tree
        dirty = tree.dirty_leaves
        c._checkpoint("integrity:before-propagate")
        self.propagate()
        c._checkpoint("integrity:after-propagate")
        # Lazy persists the witness alone: recovery recomputes every root
        # from the image and reads only the witness, and no access reads a
        # group line, so persisted interior digests would be write-only.
        # Eager still writes one full ancestor path per dirty leaf,
        # duplicates and all — the strict-persistence strawman.
        groups: List[Tuple[int, int]] = []
        if self.discipline == "eager":
            for leaf in dirty:
                for level, index in ((0, leaf), *tree.ancestors(leaf)):
                    groups.append((level, index // tree.arity))
        addresses = [self._group_address(level, group) for level, group in groups]
        datas: List[Optional[bytes]] = [
            b"".join(tree.group(level, group)) for level, group in groups
        ]
        # The root witness line is written last; its functional content
        # goes through _persist_root so the commit point is one discrete,
        # testable step (the write below is timing/traffic only).
        addresses.append(self.root_line)
        datas.append(None)
        # Posted like a drainer round: the lines are durable once the WPQ
        # accepts them (the update unit sits inside the ADR domain), so
        # the access does not wait for them to reach the NVM.
        c.memory.issue_path(
            addresses, Access.WRITE, c.clock.core_to_mem(c.now),
            RequestKind.INTEGRITY, datas,
        )
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
        payload = self._seq.to_bytes(_ROOT_SEQ_BYTES, "little") + self.root
        self.c.memory.store_line(self.root_line, payload)
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
        self.propagate()
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
        recomputed = self.recompute_root()
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
        self.propagate()
        self._seq += 1
        self._persist_root()


def _exact_extent(controller) -> int:
    """Upper bound (bytes) of the controller's persistent data layout.

    Everything the protocol writes functionally falls below this bound:
    the main layout, the recursive intent log, and the version/bounce
    scratch lines.  The bound is exact, so the digest lines sit right
    above the last protected line; a store beyond it raises in
    :meth:`IntegrityDomain._observe`.
    """
    line_bytes = controller.memory.line_bytes
    extent = controller.layout.total_bytes
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
    layout = getattr(controller, "layout", None)
    if layout is None:
        raise ValueError(
            f"{type(controller).__name__} has no memory layout — the "
            "integrity domain sizes its trees from it"
        )
    if discipline is None:
        discipline = policy.integrity_discipline()
    memory = controller.memory
    regions = [layout.data_tree]
    if layout.posmap_tree is not None:
        regions.append(layout.posmap_tree)
    bucket_trees = [BucketIntegrityTree(memory, region, key=key) for region in regions]
    line_base = layout.data_tree.base + layout.data_tree.size_bytes
    line_tree = MerkleIntegrityTree(
        memory, base=line_base, size_bytes=_exact_extent(controller) - line_base,
        key=key,
    )
    domain = IntegrityDomain(controller, line_tree, bucket_trees, discipline, key=key)
    domain.install()
    return domain
