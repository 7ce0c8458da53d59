"""Lazy-propagation keyed Merkle tree over a line-addressed NVM region.

The integrity subsystem's hash tree, following the Bonsai-style update
streamlining of Freij et al. (*Streamlining Integrity Tree Updates for
Secure Persistent NVM*): a line write recomputes its **leaf** digest
immediately (the MAC must cover the content that was actually written),
but interior-node propagation is *deferred* — dirty leaves accumulate in
a set and :meth:`MerkleIntegrityTree.propagate` recomputes each affected
ancestor exactly once, however many dirty leaves share it.  Clean
subtrees are never rehashed: interior digests are cached in the sparse
node store and only recomputed when a descendant changed.

Readers (:attr:`root`, :meth:`verify_line`, :meth:`audit`) propagate
first, so the lazy tree is observationally identical to the old eager
one — just cheaper: ``k`` line writes into one bucket cost ``k`` leaf
hashes plus **one** ancestor walk instead of ``k``.

:meth:`recompute_root` is the deliberately uncached reference
implementation — a from-scratch walk over the written lines in the
region that never consults the node cache.  Crash recovery uses it to
authenticate a recovered image against the persisted root witness
(:mod:`repro.integrity.domain`), and the differential test in
``tests/test_integrity.py`` brute-forces the cached tree against it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.crypto.prf import Prf
from repro.mem.controller import NVMMainMemory

#: Width of every tree digest (leaf MAC, interior node, persisted root).
#: A node line packs ``line_bytes // DIGEST_BYTES`` sibling digests, which
#: is what fixes the tree's arity.
DIGEST_BYTES = 16


class MerkleIntegrityTree:
    """Incremental keyed Merkle tree with lazy interior-node propagation.

    The tree is line-shaped: its arity is the number of digests one NVM
    line holds (4 at 64 B lines), so each group of siblings persists as
    exactly one line (:mod:`repro.integrity.domain`).  The arity is derived
    from the memory geometry, never configured.
    """

    def __init__(self, memory: NVMMainMemory, base: int, size_bytes: int,
                 key: bytes = b"integrity-key"):
        if size_bytes <= 0:
            raise ValueError("region must be non-empty")
        self.memory = memory
        self.base = base
        self.line_bytes = memory.line_bytes
        self.arity = self.line_bytes // DIGEST_BYTES
        if self.arity < 2:
            raise ValueError(
                f"{self.line_bytes} B lines cannot hold two {DIGEST_BYTES} B digests"
            )
        self.num_leaves = max(1, -(-size_bytes // self.line_bytes))
        self.height = 1
        while self.arity ** self.height < self.num_leaves:
            self.height += 1
        self._prf = Prf(key, digest_size=DIGEST_BYTES).derive("merkle")
        # Sparse node store: (level, index) -> digest.  Level 0 = leaves.
        self._nodes: Dict[Tuple[int, int], bytes] = {}
        # Leaves whose ancestor paths are stale (leaf digests are always
        # fresh — update_line hashes the line content at write time).
        self._dirty: Set[int] = set()
        self._empty: Dict[int, bytes] = {}
        self.updates = 0
        #: Interior-node PRF evaluations performed by propagation — the
        #: caching/batching metric the integrity bench records.
        self.node_hashes = 0

    # -- hashing ------------------------------------------------------------

    def _leaf_digest(self, leaf_index: int) -> bytes:
        address = self.base + leaf_index * self.line_bytes
        content = self.memory.load_line(address) or b""
        return self._prf.evaluate(b"L" + leaf_index.to_bytes(8, "little") + content)

    def _empty_digest(self, level: int) -> bytes:
        digest = self._empty.get(level)
        if digest is None:
            digest = self._prf.evaluate(b"E" + level.to_bytes(4, "little"))
            self._empty[level] = digest
        return digest

    def _interior_digest(self, level: int, children: List[bytes]) -> bytes:
        return self._prf.evaluate(
            b"N" + level.to_bytes(4, "little") + b"".join(children)
        )

    def group(self, level: int, group: int) -> List[bytes]:
        """The ``arity`` sibling digests of one group at ``level``, in index
        order: the children of node ``(level + 1, group)``, and the content
        of one persisted node line."""
        first = self.arity * group
        return [self._node(level, first + j) for j in range(self.arity)]

    def _node(self, level: int, index: int) -> bytes:
        digest = self._nodes.get((level, index))
        return digest if digest is not None else self._empty_digest(level)

    def node(self, level: int, index: int) -> bytes:
        """Current digest of one (propagated) tree node."""
        return self._node(level, index)

    # -- updates --------------------------------------------------------------

    def _leaf_of(self, address: int) -> int:
        leaf = (address - self.base) // self.line_bytes
        if not 0 <= leaf < self.num_leaves:
            raise ValueError(f"address {address:#x} outside integrity region")
        return leaf

    def update_line(self, address: int) -> None:
        """Re-hash one line's leaf now; defer the ancestor walk.

        The leaf MAC snapshots the content at write time (later tampering
        with the image is still caught); the O(log n) interior update is
        batched into the next :meth:`propagate`.
        """
        leaf = self._leaf_of(address)
        self._nodes[(0, leaf)] = self._leaf_digest(leaf)
        self._dirty.add(leaf)
        self.updates += 1

    @property
    def dirty_leaves(self) -> Tuple[int, ...]:
        """Leaves whose ancestor paths are pending propagation (sorted)."""
        return tuple(sorted(self._dirty))

    def ancestors(self, leaf: int) -> List[Tuple[int, int]]:
        """The (level, index) interior nodes above ``leaf``, root last."""
        out = []
        index = leaf
        for level in range(1, self.height + 1):
            index //= self.arity
            out.append((level, index))
        return out

    def propagate(self) -> None:
        """Batch-recompute every stale digest; one hash per affected node."""
        if not self._dirty:
            return
        arity = self.arity
        frontier = sorted({leaf // arity for leaf in self._dirty})
        self._dirty.clear()
        for level in range(1, self.height + 1):
            for index in frontier:
                self._nodes[(level, index)] = self._interior_digest(
                    level, self.group(level - 1, index)
                )
                self.node_hashes += 1
            frontier = sorted({index // arity for index in frontier})

    @property
    def root(self) -> bytes:
        """The root digest — the value the persistence domain protects."""
        self.propagate()
        return self._node(self.height, 0)

    # -- verification ---------------------------------------------------------

    def verify_line(self, address: int) -> bool:
        """Authenticate one line against the tree (detects replay)."""
        leaf = (address - self.base) // self.line_bytes
        if not 0 <= leaf < self.num_leaves:
            return False
        return self._node(0, leaf) == self._leaf_digest(leaf)

    def audit(self, expected_root: Optional[bytes] = None) -> List[int]:
        """Full image walk: returns byte addresses of every corrupt line.

        If ``expected_root`` is given it is checked first — a mismatch with
        a clean line walk indicates tampering with the tree itself.
        """
        corrupt = []
        for leaf in range(self.num_leaves):
            stored = self._nodes.get((0, leaf))
            if stored is None:
                continue  # never-tracked line
            if stored != self._leaf_digest(leaf):
                corrupt.append(self.base + leaf * self.line_bytes)
        if expected_root is not None and expected_root != self.root:
            corrupt.append(-1)  # sentinel: root mismatch
        return corrupt

    # -- uncached reference -----------------------------------------------

    def recompute_root(self, addresses: Optional[Iterable[int]] = None) -> bytes:
        """From-scratch root over the current image; ignores every cache.

        Pure: touches neither the node store nor the dirty set.  Recovery
        authenticates a post-crash image by comparing this against the
        persisted root witness; a tracking gap or torn write shows up as
        a mismatch even when every cached digest is self-consistent.
        ``addresses`` are the written lines to cover (the domain passes
        the ones it routed to this tree); by default the region is walked.
        """
        if addresses is None:
            addresses = self.memory.written_lines(
                self.base, self.num_leaves * self.line_bytes
            )
        level_digests: Dict[int, bytes] = {}
        for address in addresses:
            leaf = (address - self.base) // self.line_bytes
            level_digests[leaf] = self._leaf_digest(leaf)
        arity = self.arity
        for level in range(1, self.height + 1):
            empty = self._empty_digest(level - 1)
            parents: Dict[int, bytes] = {}
            for index in sorted({child // arity for child in level_digests}):
                first = arity * index
                parents[index] = self._interior_digest(
                    level, [level_digests.get(first + j, empty) for j in range(arity)]
                )
            level_digests = parents
        return level_digests.get(0, self._empty_digest(self.height))
