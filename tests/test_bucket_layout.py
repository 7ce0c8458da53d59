"""Unit tests for buckets and the NVM memory layout."""

import pytest

from repro.config import ORAMConfig
from repro.errors import ConfigError
from repro.oram.block import Block
from repro.oram.bucket import Bucket
from repro.oram.layout import MemoryLayout


class TestBucket:
    def test_empty(self):
        bucket = Bucket.empty(4, 64)
        assert bucket.real_count == 0
        assert bucket.free_slots == 4
        assert all(block.is_dummy for block in bucket)

    def test_real_count(self):
        blocks = [
            Block(address=1, path_id=0, data=bytes(64)),
            Block.dummy(64),
            Block(address=2, path_id=0, data=bytes(64)),
            Block.dummy(64),
        ]
        bucket = Bucket(4, blocks)
        assert bucket.real_count == 2
        assert len(bucket.real_blocks()) == 2

    def test_size_enforced(self):
        with pytest.raises(ValueError):
            Bucket(4, [Block.dummy(64)])


class TestMemoryLayout:
    def _config(self, height=6):
        return ORAMConfig(height=height, z=4, stash_capacity=100)

    def test_regions_do_not_overlap(self):
        layout = MemoryLayout(self._config(), recursive=True)
        regions = sorted([
            (layout.data_tree.base, layout.data_tree.size_bytes),
            (layout.posmap.base, layout.posmap.size_bytes),
            (layout.posmap_tree.base, layout.posmap_tree.size_bytes),
        ])
        for (base_a, size_a), (base_b, _) in zip(regions, regions[1:]):
            assert base_a + size_a <= base_b
        assert layout.total_bytes == layout.posmap_tree.base + layout.posmap_tree.size_bytes

    def test_slot_addresses_unique_and_line_aligned(self):
        layout = MemoryLayout(self._config(height=4))
        seen = set()
        tree = layout.data_tree
        for bucket in range(tree.num_buckets):
            for slot in range(tree.z):
                addr = tree.slot_address(bucket, slot)
                assert addr % 64 == 0
                assert addr not in seen
                seen.add(addr)
        assert len(seen) == tree.num_buckets * tree.z

    def test_slot_bounds_checked(self):
        tree = MemoryLayout(self._config(height=4)).data_tree
        with pytest.raises(ConfigError):
            tree.slot_address(tree.num_buckets, 0)
        with pytest.raises(ConfigError):
            tree.slot_address(0, tree.z)

    def test_posmap_entry_addresses(self):
        layout = MemoryLayout(self._config())
        region = layout.posmap
        # Entries in the same line share an address; across lines differ.
        assert region.entry_address(0) == region.entry_address(1)
        assert region.entry_address(0) != region.entry_address(8)
        with pytest.raises(ConfigError):
            region.entry_address(region.num_entries)

    def test_recursive_trees_shrink(self):
        layout = MemoryLayout(self._config(height=10), recursive=True)
        assert layout.posmap_tree.height < layout.data_tree.height == 10

    def test_recursive_tree_holds_all_posmap_blocks(self):
        config = self._config(height=10)
        layout = MemoryLayout(config, recursive=True)
        posmap_blocks = -(-config.num_logical_blocks // config.posmap_entries_per_block)
        tree = layout.posmap_tree
        usable = int(tree.z * tree.num_buckets * config.utilization)
        assert usable >= posmap_blocks
        # ...and it is the smallest tree that does: one level fewer would not.
        smaller = int(tree.z * ((1 << tree.height) - 1) * config.utilization)
        assert smaller < posmap_blocks

    def test_recursive_carves_exactly_one_posmap_tree(self):
        config = self._config(height=10)
        flat = MemoryLayout(config)
        recursive = MemoryLayout(config, recursive=True)
        # The posmap tree is appended after the flat layout's regions, so
        # the data tree and PosMap region sit where they do without it.
        assert recursive.data_tree == flat.data_tree
        assert recursive.posmap == flat.posmap
        assert recursive.posmap_tree.base == flat.total_bytes
        assert recursive.total_bytes == flat.total_bytes + recursive.posmap_tree.size_bytes

    def test_non_recursive_carves_no_posmap_tree(self):
        layout = MemoryLayout(self._config())
        assert layout.posmap_tree is None
        # The scratch lines after the PosMap region end the layout.
        assert layout.total_bytes == layout.posmap.base + layout.posmap.size_bytes + 17 * 64

    def test_posmap_entries_per_block_derived_from_block_size(self):
        assert self._config().posmap_entries_per_block == 8
        assert ORAMConfig(height=6, stash_capacity=100, block_bytes=128).posmap_entries_per_block == 16

    def test_describe_mentions_all_regions(self):
        text = MemoryLayout(self._config(), recursive=True).describe()
        assert "data tree" in text
        assert "posmap" in text
        assert "posmap tree" in text
        assert "posmap tree" not in MemoryLayout(self._config()).describe()
