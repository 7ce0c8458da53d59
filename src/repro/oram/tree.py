"""The NVM-resident ORAM tree.

Couples a :class:`TreeRegion` of the address map with the NVM main memory
and a :class:`BlockCodec`: reading a bucket issues Z timed line reads and
decrypts the blobs; writing re-encrypts with fresh IVs and issues Z timed
line writes.  Unwritten slots decode as dummy blocks, so the 4GB paper tree
needs no initialization pass.

Behind a window scheduler deeper than 1 the top :data:`BUFFER_LEVELS`
levels are served from the controller's on-chip write-through bucket
buffer (:meth:`ORAMTree.hold_top`): a path read issues timed NVM reads
only for the deeper levels, still decodes every slot from the image, and
completes no earlier than the cycle the owning controller's latest
eviction refreshed the buffer.  Writes are unchanged — every eviction
still writes the full path to NVM, so the image and crash semantics do
not depend on the buffer.

All timed methods take and return a time in *memory-controller cycles*; the
caller (the ORAM controller) owns clock-domain conversion.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, RequestKind
from repro.oram.block import Block, BlockCodec
from repro.oram.bucket import Bucket
from repro.oram.layout import TreeRegion

#: Tree levels the on-chip write-through bucket buffer holds: the root,
#: which every path crosses, and its two children — 3 buckets of Z lines.
BUFFER_LEVELS = 2


@lru_cache(maxsize=64)
def _path_slot_addresses(region: TreeRegion, path_id: int) -> Tuple[int, ...]:
    """Line addresses of every slot on a path, root-first, slot-major.

    ``TreeRegion`` is a frozen (hashable) dataclass, so the cache key is
    effectively ``(base, height, z, line_bytes, path_id)``.  Every timed
    path access needs these ``Z * (L + 1)`` addresses; computing them once
    per (region, path) removes the per-slot index math and range checks
    from the hot loop.  The cache holds what one window of accesses
    reuses (each access reads and writes the same path of each tree); at
    the paper's L = 23 paths almost never repeat beyond that, and a
    larger cache only keeps dead tuples of ``Z * (L + 1)`` addresses.
    """
    height = region.height
    z = region.z
    base = region.base
    line = region.line_bytes
    bucket_span = z * line
    addresses: List[int] = []
    for level in range(height + 1):
        bucket = (1 << level) - 1 + (path_id >> (height - level))
        first = base + bucket * bucket_span
        addresses += range(first, first + bucket_span, line)
    return tuple(addresses)


class ORAMTree:
    """Timed, encrypted view of one ORAM tree region."""

    def __init__(
        self,
        region: TreeRegion,
        memory: NVMMainMemory,
        codec: BlockCodec,
        kind: RequestKind = RequestKind.DATA_PATH,
    ):
        self.region = region
        self.memory = memory
        self.codec = codec
        self.kind = kind
        #: Per-level ``(arrival, finish)`` memory-cycle spans of the most
        #: recent :meth:`read_path` call, root-first — the fetch half of
        #: the window scheduler's segment-level timing decomposition.
        self.last_read_level_spans: Tuple[Tuple[int, int], ...] = ()
        #: Top levels served from the on-chip bucket buffer; 0 (the
        #: serial pipeline) reads every level from NVM.
        self.buffered_levels = 0
        #: Memory cycle at which the owning controller's latest eviction
        #: refreshed the buffer.  A buffered read completes no earlier:
        #: the buffer's read-after-write rule.
        self.buffer_refreshed = 0

    @property
    def height(self) -> int:
        return self.region.height

    @property
    def z(self) -> int:
        return self.region.z

    @property
    def path_slots(self) -> int:
        """Slots on one path: Z * (height + 1)."""
        return self.z * (self.height + 1)

    def path_addresses(self, path_id: int) -> Tuple[int, ...]:
        """Cached line addresses of every slot on a path (root-first)."""
        return _path_slot_addresses(self.region, path_id)

    def hold_top(self) -> int:
        """Serve the top levels from the on-chip bucket buffer.

        Returns the number of buffered levels.  The buffer is
        write-through, so it holds nothing the NVM image lacks and needs
        no fill or flush.
        """
        self.buffered_levels = min(BUFFER_LEVELS, self.height + 1)
        return self.buffered_levels

    # -- functional (untimed) access -------------------------------------------

    def load_slot(self, bucket_idx: int, slot: int) -> Block:
        """Decode the block stored at one slot (dummy if never written)."""
        address = self.region.slot_address(bucket_idx, slot)
        wire = self.memory.load_line(address)
        if wire is None:
            return Block.dummy(self.codec.block_bytes)
        return self.codec.decode(wire, address)

    def store_slot(self, bucket_idx: int, slot: int, block: Block) -> int:
        """Encode and functionally store a block; returns the line address."""
        address = self.region.slot_address(bucket_idx, slot)
        self.memory.store_line(address, self.codec.encode(block, address))
        return address

    def load_bucket(self, bucket_idx: int) -> Bucket:
        """Decode one full bucket."""
        return Bucket(self.z, [self.load_slot(bucket_idx, s) for s in range(self.z)])

    # -- timed path access -----------------------------------------------------

    def read_path(
        self,
        path_id: int,
        start_cycle: int,
        level_floors: Optional[Sequence[int]] = None,
    ) -> Tuple[List[Block], int]:
        """Read and decrypt every slot on a path.

        Returns ``(blocks, finish_cycle)`` with blocks ordered root-first.
        One timed line read is issued per slot below the buffered top
        levels; a buffered read finishes no earlier than
        :attr:`buffer_refreshed`.

        ``level_floors`` (memory cycles, root-first, one per level) is the
        window scheduler's segment-hazard discipline: the read of level
        ``l``'s bucket must not *arrive* before ``floors[l]`` — the cycle
        an older in-flight access's write-back round released that bucket
        segment.  Consecutive levels with the same effective arrival are
        issued as one batch, so when no floor binds the call degenerates
        to the single :meth:`~repro.mem.controller.NVMMainMemory.
        issue_path` of the serial pipeline (bit-identical timing).
        """
        memory = self.memory
        addresses = _path_slot_addresses(self.region, path_id)
        height = self.region.height
        top = self.buffered_levels
        arrivals: Optional[List[int]] = None
        if level_floors is not None:
            if len(level_floors) != height + 1:
                raise ValueError(
                    f"level_floors has {len(level_floors)} levels, "
                    f"expected {height + 1}"
                )
            if any(floor > start_cycle for floor in level_floors[top:]):
                arrivals = [
                    floor if floor > start_cycle else start_cycle
                    for floor in level_floors
                ]
        z = self.region.z
        if arrivals is None:
            finish = start_cycle
            if top <= height:
                finish = memory.issue_path(
                    addresses[top * z :] if top else addresses,
                    Access.READ,
                    start_cycle,
                    self.kind,
                )
            self.last_read_level_spans = ((start_cycle, finish),) * (height + 1)
        else:
            finish = start_cycle
            spans: List[Tuple[int, int]] = [(start_cycle, start_cycle)] * top
            level = top
            while level <= height:
                group_arrival = arrivals[level]
                stop = level + 1
                while stop <= height and arrivals[stop] == group_arrival:
                    stop += 1
                group_finish = memory.issue_path(
                    addresses[level * z : stop * z],
                    Access.READ,
                    group_arrival,
                    self.kind,
                )
                spans.extend(
                    (group_arrival, group_finish) for _ in range(level, stop)
                )
                if group_finish > finish:
                    finish = group_finish
                level = stop
            self.last_read_level_spans = tuple(spans)
        if top and self.buffer_refreshed > finish:
            finish = self.buffer_refreshed
        load_line = memory.load_line
        wires = [load_line(address) for address in addresses]
        codec = self.codec
        if None not in wires:
            return codec.decode_path(wires, addresses), finish
        dummy = Block.dummy_template(codec.block_bytes)
        written = [i for i, wire in enumerate(wires) if wire is not None]
        decoded = iter(codec.decode_path(
            [wires[i] for i in written], [addresses[i] for i in written]
        ))
        return [dummy if wire is None else next(decoded) for wire in wires], finish

    def read_path_headers(self, path_id: int) -> List[Block]:
        """Functional header-only scan of a path (used by recovery)."""
        load_line = self.memory.load_line
        decode_header = self.codec.decode_header
        dummy = Block.dummy_template(self.codec.block_bytes)
        return [
            dummy if (wire := load_line(address)) is None
            else decode_header(wire, address)
            for address in _path_slot_addresses(self.region, path_id)
        ]

    def write_path(
        self,
        path_id: int,
        assignment: List[List[Block]],
        start_cycle: int,
    ) -> int:
        """Encrypt and write a full path.

        ``assignment[level]`` is the list of blocks (padded with dummies by
        the caller or here) placed in the bucket at that level.  Every slot
        on the path is written — full-path re-encryption is what keeps the
        write pattern independent of the eviction content.  Returns the
        finish cycle.
        """
        if len(assignment) != self.height + 1:
            raise ValueError(
                f"assignment has {len(assignment)} levels, expected {self.height + 1}"
            )
        z = self.z
        dummy = Block.dummy_template(self.codec.block_bytes)
        blocks: List[Block] = []
        for level, placed in enumerate(assignment):
            if len(placed) > z:
                raise ValueError(f"level {level} assigned {len(placed)} > Z={z} blocks")
            blocks.extend(placed)
            blocks.extend(dummy for _ in range(z - len(placed)))
        addresses = _path_slot_addresses(self.region, path_id)
        wires = self.codec.encode_path(blocks, addresses)
        return self.memory.issue_path(
            addresses,
            Access.WRITE,
            start_cycle,
            self.kind,
            datas=wires,
        )

    # -- diagnostics -------------------------------------------------------------

    def real_block_count(self) -> int:
        """Total real blocks currently stored (functional full scan)."""
        count = 0
        for bucket_idx in range(self.region.num_buckets):
            count += self.load_bucket(bucket_idx).real_count
        return count

    def occupancy_by_level(self) -> List[float]:
        """Mean real-block fraction per level (functional full scan)."""
        totals = [0 for _ in range(self.height + 1)]
        counts = [0 for _ in range(self.height + 1)]
        for bucket_idx in range(self.region.num_buckets):
            level = (bucket_idx + 1).bit_length() - 1
            totals[level] += self.load_bucket(bucket_idx).real_count
            counts[level] += self.z
        return [t / c if c else 0.0 for t, c in zip(totals, counts)]
