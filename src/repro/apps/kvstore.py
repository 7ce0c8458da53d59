"""An oblivious, crash-safe key-value store.

Layout over the ORAM's logical block space::

    [ header | directory buckets | data blocks ... ]

* the **header** (block 0) holds the allocator state epoch;
* the **directory** is a fixed array of hash buckets; each bucket block
  packs up to 4 entries of ``(key fingerprint, start block, chunk count,
  generation)``;
* **values** span chained data blocks (62 payload bytes each);
* a **free list** is rebuilt on open by scanning directory entries — the
  store needs no separate persistent allocator state, which keeps every
  mutation's commit point a single directory-bucket access.

Write protocol (crash-atomic): write the new value's chunks to fresh
blocks, then commit with one ``read_modify_write`` of the directory
bucket: the ORAM fetches the bucket, the mutator splices the entry
pointing at the new chunks into it on chip, and the access's atomic
write-back makes it durable.  A crash before that write-back leaves the
old entry (old value) intact; after it, the new value is fully durable.
A delete is one such access that clears the slot.  The superseded
chunks are reclaimed lazily.

Obliviousness: every operation is a fixed pattern of ORAM block accesses
keyed by a `BLAKE2` fingerprint, so bucket choice reveals nothing about the
key to a bus observer (the ORAM hides the bucket index itself anyway).  A
put or a get of a k-chunk value costs k+1 accesses and a delete costs 1,
so the access count does not tell a put from a get of the same size.
Opening a store over a blank NVM image costs none: every block of a blank
image reads as zeros, so its directory is known empty.  The commit needs
an ORAM's on-chip mutate path; the plain non-ORAM controller has none and
rejects the first put with ``ValueError``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import ReproError

_ENTRY_BYTES = 16  # fingerprint(6) | start(4) | chunks(2) | generation(4)
_ENTRIES_PER_BUCKET = 4
_CHUNK_PAYLOAD = 62  # 64 - (index, length) header


class StoreFullError(ReproError):
    """No free data blocks or directory slots remain."""


class StoreClosedError(ReproError):
    """The store was :meth:`~ObliviousKVStore.close`\\ d; reopen to use it."""


class ObliviousKVStore:
    """Dict-like storage over a crash-consistent ORAM controller."""

    def __init__(self, controller, directory_buckets: int = 64):
        capacity = controller.oram_config.num_logical_blocks
        if directory_buckets < 1:
            raise ValueError("need at least one directory bucket")
        if capacity < directory_buckets + 8:
            raise ValueError("ORAM too small for this directory size")
        self._oram = controller
        self._buckets = directory_buckets
        self._data_base = 1 + directory_buckets
        self._data_blocks = max(0, capacity - self._data_base)
        self._free: List[int] = []
        self._used: Set[int] = set()
        self._generation = 0
        self._closed = False
        self._recover_allocator()

    @classmethod
    def create(
        cls,
        variant: str,
        config,
        directory_buckets: int = 64,
        **controller_kwargs,
    ) -> "ObliviousKVStore":
        """Build the named variant's controller and open a store over it.

        One-stop assembly via :meth:`repro.engine.registry.VariantSpec.make`
        — the path serve shards and examples use instead of wiring a
        controller by hand.
        """
        from repro.core.variants import get_spec

        controller = get_spec(variant).make(config, **controller_kwargs)
        return cls(controller, directory_buckets=directory_buckets)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        """Store ``value``; atomic and durable on return."""
        self._check_open()
        chunks = [
            value[i : i + _CHUNK_PAYLOAD]
            for i in range(0, len(value), _CHUNK_PAYLOAD)
        ] or [b""]
        if len(chunks) > 0xFFFF:
            raise ValueError("value too large")
        blocks = self._allocate(len(chunks))
        for index, (block, chunk) in enumerate(zip(blocks, chunks)):
            header = bytes([index & 0xFF, len(chunk)])
            self._oram.write(block, header + chunk)
        # Commit point: one read-modify-write of the directory bucket.  The
        # mutator never raises inside the access; a full bucket is written
        # back unchanged and reported once the access has returned.
        fingerprint = self._fingerprint(key)
        generation = self._generation + 1
        entry = self._pack_entry(fingerprint, blocks[0], len(chunks), generation)

        def commit(payload: bytes) -> bytes:
            slot, _ = self._find(payload, fingerprint)
            return payload if slot is None else self._splice(payload, slot, entry)

        bucket_index = self._bucket_of(fingerprint)
        old_payload = self._oram.read_modify_write(1 + bucket_index, commit).data
        slot, old = self._find(old_payload, fingerprint)
        if slot is None:
            raise StoreFullError(
                f"directory bucket {bucket_index} full (4 colliding keys)"
            )
        self._generation = generation
        if old is not None:
            self._release(old[0], old[1])

    def get(self, key: str) -> bytes:
        """Fetch a value; raises ``KeyError`` when absent."""
        self._check_open()
        found = self._lookup(key)
        if found is None:
            raise KeyError(key)
        start, count = found
        out = bytearray()
        for index in range(count):
            block = self._oram.read(start + index).data
            out.extend(block[2 : 2 + block[1]])
        return bytes(out)

    def delete(self, key: str) -> None:
        """Remove a key in one atomic access; raises ``KeyError`` when absent."""
        self._check_open()
        fingerprint = self._fingerprint(key)

        def clear(payload: bytes) -> bytes:
            slot, found = self._find(payload, fingerprint)
            if found is None:
                return payload
            return self._splice(payload, slot, bytes(_ENTRY_BYTES))

        old_payload = self._oram.read_modify_write(
            1 + self._bucket_of(fingerprint), clear
        ).data
        _, found = self._find(old_payload, fingerprint)
        if found is None:
            raise KeyError(key)
        self._release(found[0], found[1])

    def __contains__(self, key: str) -> bool:
        return self._lookup(key) is not None

    def keys_fingerprints(self) -> Iterator[bytes]:
        """Fingerprints of stored keys (keys themselves are never stored)."""
        for bucket in range(self._buckets):
            payload = self._oram.read(1 + bucket).data
            for slot in range(_ENTRIES_PER_BUCKET):
                entry = payload[slot * _ENTRY_BYTES : (slot + 1) * _ENTRY_BYTES]
                if any(entry):
                    yield entry[:6]

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def controller(self):
        """The underlying ORAM controller (for crash hooks and timing)."""
        return self._oram

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # lifecycle: settle / close / crash plumbing
    # ------------------------------------------------------------------

    def settle(self) -> int:
        """Drain in-flight ORAM state; returns reclaimed block count.

        Every mutation is individually durable when its call returns (the
        PS contract), so what can remain *in flight* is the fallout of an
        interrupted one: a ``put`` that crashed (or raised) after writing
        value chunks but before the directory commit leaves those blocks
        marked used in the volatile allocator while the durable directory
        never adopted them.  ``settle`` re-scans the durable directory and
        rebuilds the allocator against it, reclaiming any such orphans, so
        a shard can be handed off or shut down with zero leaked capacity.
        """
        self._check_open()
        leaked_before = len(self._used)
        self._recover_allocator()
        return max(0, leaked_before - len(self._used))

    def close(self) -> int:
        """Settle the store, then refuse further operations.

        Returns the number of orphaned blocks the final settle reclaimed.
        Closing is idempotent; a closed store raises
        :class:`StoreClosedError` on any data operation.
        """
        if self._closed:
            return 0
        reclaimed = self.settle()
        self._closed = True
        return reclaimed

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("operation on a closed ObliviousKVStore")

    def crash(self) -> None:
        self._oram.crash()

    def recover(self) -> bool:
        """Recover the ORAM, then rebuild the volatile allocator state.

        A successful recovery reopens a closed store: all volatile state
        (including the closed flag) is rebuilt from the durable image.
        """
        if not self._oram.recover():
            return False
        self.reopen()
        return True

    def reopen(self) -> int:
        """Rebuild the volatile store state over an already-recovered ORAM.

        The shared tail of every recovery path: re-scan the durable
        directory, reclaim chunks orphaned by an interrupted batch, and
        clear the closed flag.  Unlike :meth:`settle` this is legal on a
        closed store (recovery legitimately reopens one) and unlike
        :meth:`recover` it runs no controller-side recovery — callers
        that power-cycled the engine themselves use this.  Returns the
        reclaimed block count.
        """
        leaked_before = len(self._used)
        self._recover_allocator()
        self._closed = False
        return max(0, leaked_before - len(self._used))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _fingerprint(key: str) -> bytes:
        return hashlib.blake2b(key.encode("utf-8"), digest_size=6).digest()

    def _bucket_of(self, fingerprint: bytes) -> int:
        return int.from_bytes(fingerprint, "little") % self._buckets

    @staticmethod
    def _pack_entry(fingerprint: bytes, start: int, chunks: int, gen: int) -> bytes:
        return (
            fingerprint
            + start.to_bytes(4, "little")
            + chunks.to_bytes(2, "little")
            + (gen & 0xFFFFFFFF).to_bytes(4, "little")
        )

    @staticmethod
    def _splice(payload: bytes, slot: int, entry: bytes) -> bytes:
        return (
            payload[: slot * _ENTRY_BYTES]
            + entry
            + payload[(slot + 1) * _ENTRY_BYTES :]
        )

    @staticmethod
    def _find(
        payload: bytes, fingerprint: bytes
    ) -> Tuple[Optional[int], Optional[Tuple[int, int]]]:
        """(usable slot, existing (start, count)) for ``fingerprint``.

        The usable slot is the key's own when present, else the first free
        one, else None (the bucket is full).
        """
        free_slot = None
        for slot in range(_ENTRIES_PER_BUCKET):
            entry = payload[slot * _ENTRY_BYTES : (slot + 1) * _ENTRY_BYTES]
            if not any(entry):
                if free_slot is None:
                    free_slot = slot
                continue
            if entry[:6] == fingerprint:
                start = int.from_bytes(entry[6:10], "little")
                count = int.from_bytes(entry[10:12], "little")
                return slot, (start, count)
        return free_slot, None

    def _lookup(self, key: str) -> Optional[Tuple[int, int]]:
        """The key's (start, count), or None; one directory read."""
        fingerprint = self._fingerprint(key)
        payload = self._oram.read(1 + self._bucket_of(fingerprint)).data
        return self._find(payload, fingerprint)[1]

    def _allocate(self, count: int) -> List[int]:
        """Contiguous-run allocation from the free list."""
        if count < 1:
            raise ValueError(f"allocation count must be >= 1, got {count}")
        if not self._free:
            # An exhausted (or zero-capacity) pool is a capacity condition
            # the caller can act on, never a bare IndexError from pop().
            raise StoreFullError(
                f"out of data blocks: 0 of {self._data_blocks} free "
                f"({len(self._used)} in use); delete keys or settle() to "
                "reclaim orphans"
            )
        if count == 1:
            block = self._free.pop()
            self._used.add(block)
            return [block]
        # Find a contiguous run (values are short in practice).
        free_sorted = sorted(self._free)
        run_start = 0
        for i in range(1, len(free_sorted) + 1):
            if (
                i == len(free_sorted)
                or free_sorted[i] != free_sorted[i - 1] + 1
            ):
                if i - run_start >= count:
                    chosen = free_sorted[run_start : run_start + count]
                    for block in chosen:
                        self._free.remove(block)
                        self._used.add(block)
                    return chosen
                run_start = i
        raise StoreFullError(
            f"no contiguous run of {count} blocks "
            f"({len(self._free)} of {self._data_blocks} free but fragmented)"
        )

    def _release(self, start: int, count: int) -> None:
        for block in range(start, start + count):
            if block in self._used:
                self._used.remove(block)
                self._free.append(block)

    def _recover_allocator(self) -> None:
        """Scan the directory and rebuild free list + generation counter.

        Tolerant by construction: a zero-capacity data region yields an
        empty free list (allocation then raises :class:`StoreFullError`
        with a clear message rather than an ``IndexError``), and entries
        pointing outside the data region — possible only if the durable
        image was corrupted — are skipped rather than poisoning the free
        list with unusable block numbers.
        """
        self._used = set()
        self._generation = 0
        data_end = self._data_base + self._data_blocks
        # A blank image reads as zeros everywhere: no directory entry to find.
        buckets = 0 if self._oram.memory.blank else self._buckets
        for bucket in range(buckets):
            payload = self._oram.read(1 + bucket).data
            for slot in range(_ENTRIES_PER_BUCKET):
                entry = payload[slot * _ENTRY_BYTES : (slot + 1) * _ENTRY_BYTES]
                if not any(entry):
                    continue
                start = int.from_bytes(entry[6:10], "little")
                count = int.from_bytes(entry[10:12], "little")
                gen = int.from_bytes(entry[12:16], "little")
                self._generation = max(self._generation, gen)
                if start < self._data_base or start + count > data_end:
                    continue  # corrupt entry; never mark phantom blocks used
                for block in range(start, start + count):
                    self._used.add(block)
        self._free = [
            self._data_base + i
            for i in range(self._data_blocks)
            if (self._data_base + i) not in self._used
        ]
