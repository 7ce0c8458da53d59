"""Path ORAM hierarchy: the tree/stash mechanics behind the access engine.

Implements the five-step access protocol of paper Section 2.2.2 by
filling in the hierarchy hooks of :class:`repro.engine.AccessEngine`:

1. **Check stash** — hit returns immediately (``_lookup_phase``).
2. **Access PosMap** — look up path id ``l``, remap to a fresh ``l'``
   (the attached persistence policy decides how).
3. **Load path** — timed read + decrypt of every slot on path ``l``
   (``_fetch_blocks``).
4. **Update stash** — target header updated to ``l'``; program data
   read/written (``_absorb_fetched`` + the engine's program-op phase).
5. **Evict path** — greedy deepest-first placement, full-path re-encrypted
   write-back to path ``l`` (the policy's ``evict``).

Persistence differences (baseline vs Naive/PS/eADR/FullNVM) live entirely
in the attached :class:`repro.engine.PersistencePolicy`; the access
skeleton never changes, which mirrors the paper's claim that PS-ORAM
preserves the baseline access sequence shape.

Functional and timing state advance together: every access really moves
encrypted bytes through the NVM image while the clock and traffic meters
advance, so crash tests and performance benches exercise one code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.crypto.engine import CryptoEngine
from repro.engine.base import _PLAN_SORT_KEY, AccessEngine, AccessResult  # noqa: F401
from repro.engine.policy import PersistencePolicy, VolatilePolicy
from repro.mem.controller import NVMMainMemory
from repro.mem.request import RequestKind
from repro.oram.block import DUMMY_ADDRESS, Block, BlockCodec
from repro.oram.layout import MemoryLayout
from repro.oram.posmap import PersistentPosMapImage, PositionMap
from repro.oram.stash import Stash, StashEntry
from repro.oram.tree import ORAMTree
from repro.util.clock import ClockDomain
from repro.util.rng import DeterministicRNG
from repro.util.stats import LazyCounter, StatSet


class PathORAMController(AccessEngine):
    """Path ORAM driven through the shared access engine.

    With the default :class:`VolatilePolicy` this is the baseline
    (non-persistent) controller; ``policy=`` swaps in any persistence
    strategy without touching the hierarchy.
    """

    def __init__(
        self,
        config: SystemConfig,
        memory: Optional[NVMMainMemory] = None,
        key: bytes = b"repro-psoram-key",
        oram_config=None,
        data_region=None,
        posmap_region=None,
        request_kind: RequestKind = RequestKind.DATA_PATH,
        rng: Optional[DeterministicRNG] = None,
        name: str = "oram",
        policy: Optional[PersistencePolicy] = None,
    ):
        config.validate()
        self.config = config
        self.oram_config = oram_config if oram_config is not None else config.oram
        if data_region is None or posmap_region is None:
            layout = MemoryLayout(self.oram_config, line_bytes=self.oram_config.block_bytes)
            data_region = data_region if data_region is not None else layout.data_tree
            posmap_region = posmap_region if posmap_region is not None else layout.posmap
            self.layout = layout
        else:
            self.layout = None
        self.memory = memory or NVMMainMemory(
            config.nvm,
            channels=config.channels,
            banks_per_channel=config.banks_per_channel,
            line_bytes=self.oram_config.block_bytes,
        )
        self.engine = CryptoEngine(key, aes_latency_cycles=self.oram_config.aes_latency_cycles)
        self.codec = BlockCodec(self.engine, self.oram_config.block_bytes)
        self.tree = ORAMTree(data_region, self.memory, self.codec, kind=request_kind)
        self.stash = Stash(self.oram_config.stash_capacity)
        num_leaves = 1 << data_region.height
        self.posmap = PositionMap(
            num_entries=self.oram_config.num_logical_blocks,
            num_leaves=num_leaves,
            seed_key=key + name.encode("utf-8"),
        )
        self.persistent_posmap = PersistentPosMapImage(
            posmap_region, self.memory, self.posmap
        )
        self.rng = rng if rng is not None else DeterministicRNG(config.seed).substream(
            f"remap-{name}"
        )
        self.clock = ClockDomain(config.core.freq_hz, config.nvm.freq_hz)
        self.now = 0  # core cycles
        self._version = 0
        self._round = 0
        # Per-path-read map: address -> line of a skipped stale on-path copy.
        self._stale_line_of: Dict[int, int] = {}
        self.stats = StatSet(name)
        # Hot-path counters bound once; the registry lookup per event is
        # measurable at one access = dozens of counter bumps.
        self._c_accesses = LazyCounter(self.stats, "accesses")
        self._c_reads = LazyCounter(self.stats, "reads")
        self._c_writes = LazyCounter(self.stats, "writes")
        self._c_stash_hits = LazyCounter(self.stats, "stash_hits")
        self._c_cold_misses = LazyCounter(self.stats, "cold_misses")
        self._c_stale_dropped = LazyCounter(self.stats, "stale_copies_dropped")
        self._c_evicted = LazyCounter(self.stats, "evicted_blocks")
        self.policy = policy if policy is not None else VolatilePolicy()
        self.policy.attach(self)

    def hold_tree_top(self) -> int:
        """Serve every owned tree's top levels from the on-chip buffer.

        Called by a window scheduler deeper than 1; returns the number of
        buffered levels of the data tree.
        """
        return self.tree.hold_top()

    # ------------------------------------------------------------------
    # engine hooks: counters
    # ------------------------------------------------------------------

    def _count_access(self, is_write: bool) -> None:
        self._c_accesses.add()
        if is_write:
            self._c_writes.add()
        else:
            self._c_reads.add()

    def _count_stash_hit(self) -> None:
        self._c_stash_hits.add()

    # ------------------------------------------------------------------
    # step 3: load path (engine fetch/absorb phases)
    # ------------------------------------------------------------------

    def _fetch_blocks(self, address: int, old_path: int) -> List[Block]:
        """Timed read + decrypt of every slot on the access path."""
        mem_start = self.clock.core_to_mem(self.now)
        # Segment-hazard floors posted by the window scheduler (one per
        # tree level, mem cycles): consume-once so a serial caller or the
        # background eviction path never inherits stale floors.
        floors = self._fetch_level_floors
        if floors is not None:
            self._fetch_level_floors = None
        blocks, mem_finish = self.tree.read_path(
            old_path, mem_start, level_floors=floors
        )
        self._fetch_level_spans = self.tree.last_read_level_spans
        self.now = self.clock.mem_to_core(mem_finish)
        # Decryption pipeline latency (pad generation overlaps the fetch per
        # Osiris, so only the pipeline depth + drain remains).
        self.now += self.engine.batch_latency_cycles(len(blocks))
        return blocks

    def _absorb_fetched(
        self, fetched: List[Block], address: int, old_path: int, new_path: int
    ) -> StashEntry:
        """Absorb live blocks into the stash; materialize the target.

        A cold miss materializes a zero-filled block, matching plain-memory
        semantics for never-written addresses.
        """
        self._absorb_blocks(fetched, address, path_id=old_path)
        target = self.stash.find(address)
        if target is None:
            self._c_cold_misses.add()
            block = Block(
                address=address,
                path_id=new_path,
                data=bytes(self.oram_config.block_bytes),
                version=self._next_version(),
            )
            target = StashEntry(block, dirty=True)
            self.stash.add(target)
        return target

    def _absorb_blocks(
        self,
        blocks: List[Block],
        target_address: int,
        path_id: Optional[int] = None,
    ) -> None:
        """Move live blocks from a path read into the stash.

        Staleness rules (Section 4.2.1 footnote, hardened with versions):

        * dummies are dropped;
        * a block whose live copy is already in the stash is stale;
        * a block whose header path id disagrees with the PosMap is a stale
          backup copy — treated as a dummy;
        * among same-address copies on one path, only the highest version is
          live (covers the remap-collision corner where old and new path ids
          coincide).

        ``blocks`` is root-first slot order; with ``path_id`` given, each
        absorbed entry records the NVM line it came from.
        """
        self.policy.on_absorb(blocks)
        best: Dict[int, Tuple[Block, Optional[int]]] = {}
        self._stale_line_of.clear()
        path_addresses = (
            self.tree.path_addresses(path_id) if path_id is not None else None
        )
        for index, block in enumerate(blocks):
            if block.address == DUMMY_ADDRESS:
                continue
            source_line = path_addresses[index] if path_addresses is not None else None
            current = best.get(block.address)
            if current is None or block.version > current[0].version:
                best[block.address] = (block, source_line)
        for address, (block, source_line) in best.items():
            if self.stash.find(address) is not None:
                self._c_stale_dropped.add()
                # Remember where the on-path stale copy of a stash-resident
                # block sits: for a backed-up block this is its current
                # durable copy, which the limited-WPQ eviction must not
                # overwrite before the fresh backup commits.
                if source_line is not None:
                    self._stale_line_of[address] = source_line
                continue
            expected = self._position_of(address)
            if address != target_address and block.path_id != expected:
                self._c_stale_dropped.add()
                continue
            self.stash.add(
                StashEntry(block, fetch_round=self._round, source_line=source_line)
            )

    # ------------------------------------------------------------------
    # step 5: eviction mechanics shared by every policy
    # ------------------------------------------------------------------

    def _finish_eviction(self, placed: List[StashEntry]) -> None:
        """Remove evicted entries from the stash and update stats.

        With the tree top buffered on chip, this is also the cycle the
        eviction refreshed the buffer: no later fetch completes earlier.
        """
        tree = self.tree
        if tree.buffered_levels:
            tree.buffer_refreshed = self.clock.core_to_mem_ceil(self.now)
        for entry in placed:
            self.stash.remove(entry)
        self._c_evicted.add(len(placed))
        self.stats.histogram("post_evict_stash").record(self.stash.occupancy)
