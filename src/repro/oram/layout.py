"""NVM physical address map for one ORAM instance.

The persistent memory is carved into regions::

    [ data ORAM tree | PosMap region | recursive PosMap tree ]

* The *data ORAM tree* holds ``num_buckets * Z`` block slots; slot ``j`` of
  bucket ``i`` occupies one line at index ``i * Z + j``.
* The *PosMap region* exists in the non-recursive (trusted-region) setting:
  a flat table of path-id entries, several per line.  PS-ORAM's PosMap WPQ
  drains dirty entries here.
* The *recursive PosMap tree* (``recursive=True`` only) is a smaller ORAM
  tree with the same slot layout, used when no trusted region exists.

Timing-wise every slot access is one line transfer (the paper's 64B block),
regardless of the functional wire size of the encrypted blob — the
functional image is a dict keyed by line address, so the larger blob simply
rides along with its line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ORAMConfig
from repro.errors import ConfigError


@dataclass(frozen=True)
class TreeRegion:
    """One ORAM tree's slice of the address space."""

    base: int
    height: int
    z: int
    line_bytes: int

    @property
    def num_buckets(self) -> int:
        return (1 << (self.height + 1)) - 1

    @property
    def size_bytes(self) -> int:
        return self.num_buckets * self.z * self.line_bytes

    def slot_address(self, bucket_index: int, slot: int) -> int:
        """Byte address of slot ``slot`` in bucket ``bucket_index``."""
        if not 0 <= bucket_index < self.num_buckets:
            raise ConfigError(f"bucket index {bucket_index} out of range")
        if not 0 <= slot < self.z:
            raise ConfigError(f"slot {slot} out of range for Z={self.z}")
        return self.base + (bucket_index * self.z + slot) * self.line_bytes

    def bucket_addresses(self, bucket_index: int) -> List[int]:
        """Addresses of all Z slots of one bucket."""
        return [self.slot_address(bucket_index, s) for s in range(self.z)]


@dataclass(frozen=True)
class PosMapRegion:
    """Flat persistent PosMap table (trusted-region setting)."""

    base: int
    num_entries: int
    line_bytes: int
    entries_per_line: int = 8

    @property
    def size_bytes(self) -> int:
        lines = (self.num_entries + self.entries_per_line - 1) // self.entries_per_line
        return lines * self.line_bytes

    def entry_address(self, entry_index: int) -> int:
        """Byte address of the line holding PosMap entry ``entry_index``."""
        if not 0 <= entry_index < self.num_entries:
            raise ConfigError(f"posmap entry {entry_index} out of range")
        return self.base + (entry_index // self.entries_per_line) * self.line_bytes


class MemoryLayout:
    """Computes non-overlapping region bases for one configuration."""

    def __init__(self, config: ORAMConfig, line_bytes: int = 64, recursive: bool = False):
        config.validate()
        self.config = config
        self.line_bytes = line_bytes
        cursor = 0
        self.data_tree = TreeRegion(
            base=cursor, height=config.height, z=config.z, line_bytes=line_bytes
        )
        # One spare line after the tree region.  Nothing uses it, but
        # every later region's base, and so every NVM image digest and
        # every line's bank, is fixed relative to it: dropping it would
        # move all of them.
        cursor += self.data_tree.size_bytes + line_bytes
        self.posmap = PosMapRegion(
            base=cursor, num_entries=config.num_logical_blocks, line_bytes=line_bytes
        )
        # Scratch lines after the PosMap region hold round metadata: the
        # persisted version counter (1 line) and the ordered-eviction
        # bounce region (16 lines) — see DirtyEntryPSPolicy.BOUNCE_LINES.
        cursor += self.posmap.size_bytes + 17 * line_bytes
        # The recursive setting adds one posmap tree: the data tree's
        # entries, packed posmap_entries_per_block to a block, at the same
        # Z and utilization.
        self.posmap_tree: Optional[TreeRegion] = None
        if recursive:
            blocks = max(1, -(-config.num_logical_blocks // config.posmap_entries_per_block))
            height = self._height_for_blocks(blocks, config.z, config.utilization)
            self.posmap_tree = TreeRegion(
                base=cursor, height=height, z=config.z, line_bytes=line_bytes
            )
            cursor += self.posmap_tree.size_bytes
        self.total_bytes = cursor

    @staticmethod
    def _height_for_blocks(num_blocks: int, z: int, utilization: float) -> int:
        """Smallest tree height whose usable slots hold ``num_blocks``."""
        height = 1
        while int(z * ((1 << (height + 1)) - 1) * utilization) < num_blocks:
            height += 1
        return height

    def describe(self) -> str:
        """Human-readable region map."""
        lines = [
            f"data tree:    base={self.data_tree.base:#x} "
            f"height={self.data_tree.height} size={self.data_tree.size_bytes}",
            f"posmap:       base={self.posmap.base:#x} "
            f"entries={self.posmap.num_entries} size={self.posmap.size_bytes}",
        ]
        if self.posmap_tree is not None:
            region = self.posmap_tree
            lines.append(
                f"posmap tree:  base={region.base:#x} "
                f"height={region.height} size={region.size_bytes}"
            )
        return "\n".join(lines)
