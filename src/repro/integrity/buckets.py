"""Path-aligned Merkle tree: one ORAM tree region's buckets are its nodes.

Path ORAM's own tree serves as the integrity tree (Stefanov et al.,
CCS 2013, integrity verification).  Each bucket's digest covers its ``Z``
slot lines and its two children's digests, so a bucket's digest changes
only when a line in its subtree changes.  An access rewrites exactly its
path, so every digest it changes sits in a bucket the access writes
anyway: the digest is modeled as riding in that bucket's own lines (the
functional image already lets a slot's blob ride with its line whatever
its size, see :mod:`repro.oram.layout`), and the tree costs no timed line.

Definitions (all :data:`~repro.integrity.tree.DIGEST_BYTES` wide):

* line MAC — ``Prf("L" || address || content)``, snapshotted when the
  line is stored, so later tampering with the image is still caught; an
  unwritten slot uses one fixed empty MAC;
* bucket digest — ``Prf("B" || bucket || Z line MACs || left || right)``;
  a never-written subtree uses a per-level empty digest, and the children
  below the leaves use one constant.

Like :class:`~repro.integrity.tree.MerkleIntegrityTree`, updates are lazy:
a store re-MACs its line and marks its bucket dirty, and
:meth:`BucketIntegrityTree.propagate` hashes the closure of dirty buckets
plus their ancestors once each, children before parents.  For a normal
path write-back that closure is exactly the path's ``L + 1`` buckets.
:meth:`BucketIntegrityTree.recompute_root` is the uncached reference.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.crypto.prf import Prf
from repro.integrity.tree import DIGEST_BYTES
from repro.mem.controller import NVMMainMemory
from repro.oram.layout import TreeRegion


class BucketIntegrityTree:
    """Lazy keyed Merkle tree over one :class:`TreeRegion`'s buckets."""

    def __init__(self, memory: NVMMainMemory, region: TreeRegion,
                 key: bytes = b"integrity-key"):
        self.memory = memory
        self.base = region.base
        self.end = region.base + region.size_bytes
        self.z = region.z
        self.line_bytes = region.line_bytes
        self.num_buckets = region.num_buckets
        self._prf = Prf(key, digest_size=DIGEST_BYTES).derive("bucket")
        self._empty_mac = self._prf.evaluate(b"S")
        self._below_leaves = self._prf.evaluate(b"X")
        self._empty = [
            self._prf.evaluate(b"E" + level.to_bytes(4, "little"))
            for level in range(region.height + 1)
        ]
        # Region line index -> MAC of its content at store time.
        self._macs: Dict[int, bytes] = {}
        # Bucket index -> digest, for every bucket with a written subtree.
        self._digests: Dict[int, bytes] = {}
        # Buckets holding a line stored since the last propagate().
        self._dirty: Set[int] = set()
        self.updates = 0

    # -- hashing ------------------------------------------------------------

    def _line_macs(self, addresses: Iterable[int]) -> List[bytes]:
        """The MAC of each line's current content, in one PRF pass."""
        load_line = self.memory.load_line
        return self._prf.evaluate_many([
            b"L" + address.to_bytes(8, "little") + (load_line(address) or b"")
            for address in addresses
        ])

    def _bucket_digest(self, bucket: int, macs: Dict[int, bytes],
                       digests: Dict[int, bytes]) -> bytes:
        first = bucket * self.z
        empty_mac = self._empty_mac
        parts = [b"B", bucket.to_bytes(8, "little")]
        parts.extend(macs.get(line, empty_mac) for line in range(first, first + self.z))
        left = 2 * bucket + 1
        if left < self.num_buckets:
            empty = self._empty[(left + 1).bit_length() - 1]
            parts.append(digests.get(left, empty))
            parts.append(digests.get(left + 1, empty))
        else:
            parts.append(self._below_leaves)
            parts.append(self._below_leaves)
        return self._prf.evaluate(b"".join(parts))

    @staticmethod
    def _closure(buckets: Iterable[int]) -> List[int]:
        """``buckets`` plus all their ancestors, deepest index first.

        In heap order a child's index exceeds its parent's, so descending
        index order hashes every child before its parent.
        """
        closure: Set[int] = set()
        for bucket in buckets:
            while bucket not in closure:
                closure.add(bucket)
                if bucket == 0:
                    break
                bucket = (bucket - 1) >> 1
        return sorted(closure, reverse=True)

    # -- updates --------------------------------------------------------------

    def update_line(self, address: int) -> None:
        """Re-MAC one stored line now and mark its bucket dirty."""
        self.update_lines([address])

    def update_lines(self, addresses: Sequence[int]) -> None:
        """Re-MAC a run of stored lines now, in one MAC pass, and mark
        their buckets dirty.

        Leaves the same MACs, dirty buckets and ``updates`` count as one
        :meth:`update_line` per address; every address is range-checked
        before any update.
        """
        base = self.base
        if not (base <= min(addresses) and max(addresses) < self.end):
            bad = next(a for a in addresses if not base <= a < self.end)
            raise ValueError(f"address {bad:#x} outside bucket-tree region")
        macs = self._line_macs(addresses)
        line_bytes = self.line_bytes
        lines = [(address - base) // line_bytes for address in addresses]
        self._macs.update(zip(lines, macs))
        z = self.z
        self._dirty.update([line // z for line in lines])
        self.updates += len(lines)

    def propagate(self) -> None:
        """Hash every dirty bucket and its ancestors once, children first."""
        if not self._dirty:
            return
        order = self._closure(self._dirty)
        self._dirty.clear()
        digests = self._digests
        for bucket in order:
            digests[bucket] = self._bucket_digest(bucket, self._macs, digests)

    @property
    def root(self) -> bytes:
        """The root bucket's digest, after pending propagation."""
        self.propagate()
        return self._digests.get(0, self._empty[0])

    # -- verification ---------------------------------------------------------

    def audit(self) -> List[int]:
        """Byte addresses of every tracked line whose content no longer
        matches the MAC taken when it was stored."""
        base = self.base
        line_bytes = self.line_bytes
        tracked = sorted(self._macs.items())
        addresses = [base + line * line_bytes for line, _mac in tracked]
        current = self._line_macs(addresses)
        return [
            address
            for address, (_line, mac), now in zip(addresses, tracked, current)
            if mac != now
        ]

    def recompute_root(self, addresses: Optional[Iterable[int]] = None) -> bytes:
        """From-scratch root over the current image; ignores every cache.

        ``addresses`` are the written lines of the region (the domain
        passes the ones it routed here); by default the region is walked.
        """
        if addresses is None:
            addresses = self.memory.written_lines(self.base, self.end - self.base)
        addresses = list(addresses)
        macs = dict(zip(
            [(address - self.base) // self.line_bytes for address in addresses],
            self._line_macs(addresses),
        ))
        digests: Dict[int, bytes] = {}
        for bucket in self._closure({line // self.z for line in macs}):
            digests[bucket] = self._bucket_digest(bucket, macs, digests)
        return digests.get(0, self._empty[0])
