"""Tests for the integrity subsystem: the Merkle trees and the persistence domain."""

import random

import pytest

from repro.config import PCM_TIMING, small_config
from repro.core.variants import build_variant, get_spec
from repro.integrity import BucketIntegrityTree, MerkleIntegrityTree, enable_integrity
from repro.integrity.tree import DIGEST_BYTES
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, RequestKind
from repro.oram.layout import TreeRegion
from tests.cases import case


@pytest.fixture
def tree():
    memory = NVMMainMemory(PCM_TIMING)
    return MerkleIntegrityTree(memory, base=0, size_bytes=64 * 64), memory


class TestMerkleTree:
    def test_root_changes_with_content(self, tree):
        t, memory = tree
        root0 = t.root
        memory.store_line(0, b"hello")
        t.update_line(0)
        assert t.root != root0

    def test_root_deterministic(self, tree):
        t, memory = tree
        memory.store_line(0, b"hello")
        t.update_line(0)
        root1 = t.root
        memory.store_line(0, b"hello")
        t.update_line(0)
        assert t.root == root1

    def test_verify_clean_line(self, tree):
        t, memory = tree
        memory.store_line(64, b"data")
        t.update_line(64)
        assert t.verify_line(64)

    def test_detects_silent_corruption(self, tree):
        t, memory = tree
        memory.store_line(64, b"data")
        t.update_line(64)
        memory._image[1] = b"tampered"  # attacker bypasses the tree
        assert not t.verify_line(64)
        assert t.audit() == [64]

    def test_detects_replay(self, tree):
        """A stale-but-well-formed line is caught — the MAC alone cannot."""
        t, memory = tree
        memory.store_line(0, b"version-1")
        t.update_line(0)
        stale = memory.load_line(0)
        memory.store_line(0, b"version-2")
        t.update_line(0)
        memory._image[0] = stale  # replay the old line
        assert not t.verify_line(0)

    def test_different_lines_independent(self, tree):
        t, memory = tree
        memory.store_line(0, b"a")
        t.update_line(0)
        memory.store_line(64, b"b")
        t.update_line(64)
        assert t.verify_line(0)
        assert t.verify_line(64)

    def test_out_of_region(self, tree):
        t, _ = tree
        with pytest.raises(ValueError):
            t.update_line(10**9)
        assert not t.verify_line(10**9)

    def test_audit_root_mismatch_sentinel(self, tree):
        t, memory = tree
        memory.store_line(0, b"x")
        t.update_line(0)
        assert t.audit(expected_root=b"wrong") == [-1]


class TestLineShape:
    """The tree's arity is the number of digests one NVM line holds."""

    def test_arity_and_height_follow_line_geometry(self, tree):
        t, memory = tree
        assert t.arity == memory.line_bytes // DIGEST_BYTES == 4
        # 64 leaves: 4**3 == 64 exactly, so three levels above the leaves.
        assert t.num_leaves == 64
        assert t.height == 3
        grown = MerkleIntegrityTree(memory, base=0, size_bytes=65 * 64)
        assert grown.height == 4

    def test_ancestors_divide_by_arity(self, tree):
        t, _ = tree
        assert t.ancestors(37) == [(1, 9), (2, 2), (3, 0)]


class TestLazyPropagation:
    """The cached lazy tree against the uncached reference implementation."""

    def test_dirty_leaves_accumulate_until_propagate(self, tree):
        t, memory = tree
        memory.store_line(0, b"a")
        t.update_line(0)
        memory.store_line(64, b"b")
        t.update_line(64)
        assert t.dirty_leaves == (0, 1)
        stale_root = t.node(t.height, 0)
        assert t.propagate() is None
        assert t.dirty_leaves == ()
        # Every interior node above the two leaves now holds its digest.
        assert t.node(t.height, 0) != stale_root
        assert t.node(t.height, 0) == t.recompute_root()
        for level, index in t.ancestors(0):
            assert t.node(level, index) == t._interior_digest(
                level, t.group(level - 1, index))

    def test_shared_ancestors_hashed_once_per_batch(self, tree):
        """k sibling-leaf writes cost one ancestor walk, not k."""
        t, memory = tree
        memory.store_line(0, b"a")
        t.update_line(0)
        memory.store_line(64, b"b")
        t.update_line(64)
        t.propagate()
        # Leaves 0 and 1 share every ancestor: exactly height hashes.
        assert t.node_hashes == t.height

    def test_brute_force_differential_vs_uncached(self):
        """Random update batches: cached root == from-scratch root, always —
        and the cache does strictly less interior hashing than recompute."""
        memory = NVMMainMemory(PCM_TIMING)
        t = MerkleIntegrityTree(memory, base=0, size_bytes=256 * 64)
        rng = random.Random(1234)
        uncached_hashes = 0
        original = t._interior_digest
        for _ in range(20):
            for _ in range(rng.randrange(1, 6)):
                line = rng.randrange(256)
                memory.store_line(line * 64, bytes([rng.randrange(256)]) * 8)
                t.update_line(line * 64)
            calls = [0]

            def counting(level, children):
                calls[0] += 1
                return original(level, children)

            t._interior_digest = counting
            reference_root = t.recompute_root()
            t._interior_digest = original
            uncached_hashes += calls[0]
            assert t.root == reference_root
            assert t.audit(expected_root=reference_root) == []
        assert t.node_hashes < uncached_hashes

    def test_recompute_root_is_pure(self, tree):
        t, memory = tree
        memory.store_line(0, b"x")
        t.update_line(0)
        before_dirty = t.dirty_leaves
        before_hashes = t.node_hashes
        t.recompute_root()
        assert t.dirty_leaves == before_dirty
        assert t.node_hashes == before_hashes


class TestIntegrityDomain:
    """The crash-consistent domain attached through the engine pipeline."""

    def _controller(self):
        return build_variant("ps", small_config(height=5, seed=2))

    def test_oram_under_integrity_protection(self):
        controller = self._controller()
        domain = enable_integrity(controller)
        controller.write(1, b"protected")
        assert controller.read(1).data.rstrip(b"\x00") == b"protected"
        assert domain.audit() == []
        assert domain.line_tree.updates > 0
        assert domain.bucket_trees[0].updates > 0
        domain.detach()

    def test_attack_on_image_detected(self):
        controller = self._controller()
        domain = enable_integrity(controller)
        controller.write(1, b"protected")
        root = domain.root
        # Attacker flips protected lines behind the trees' back: one in
        # the data tree, one in the residual region.
        data_end = domain.line_tree.base
        victims = [
            next(line for line in controller.memory._image
                 if line * 64 < data_end),
            next(line for line in controller.memory._image
                 if data_end <= line * 64 < domain.protect_bytes),
        ]
        for victim in victims:
            controller.memory._image[victim] = b"evil"
        corrupt = domain.audit(expected_root=root)
        for victim in victims:
            assert victim * 64 in corrupt
        assert domain.recompute_root() != root
        domain.detach()

    def test_survives_crash_recovery_cycle(self):
        controller = self._controller()
        domain = enable_integrity(controller)
        controller.write(1, b"before")
        controller.crash()
        assert controller.recover()
        assert domain.recovery_violations == []
        controller.write(2, b"after")
        assert domain.audit() == []
        domain.detach()

    def test_enable_is_idempotent(self):
        controller = self._controller()
        domain = enable_integrity(controller)
        assert enable_integrity(controller) is domain
        domain.detach()

    def test_detach_is_idempotent(self):
        """Regression: the old shim's double-detach re-installed the wrap."""
        controller = self._controller()
        domain = enable_integrity(controller)
        domain.detach()
        domain.detach()  # must be a harmless no-op
        assert controller.memory.line_observer is None
        assert controller.integrity is None
        # Writes after a double detach are plain, untracked stores.
        trees = (domain.line_tree, *domain.bucket_trees)
        updates = [tree.updates for tree in trees]
        controller.write(3, b"untracked")
        assert [tree.updates for tree in trees] == updates

    def test_policy_less_controller_rejected(self):
        memory = NVMMainMemory(PCM_TIMING)

        class Bare:
            pass

        bare = Bare()
        bare.memory = memory
        with pytest.raises(ValueError):
            enable_integrity(bare)

    def test_config_switch_attaches_on_every_build_path(self):
        """``config.integrity`` is honoured by the spec itself, so every
        assembly path gets the domain, not just ``build_variant``."""
        from repro.apps.kvstore import ObliviousKVStore
        from repro.engine.registry import build_scheduled

        config = small_config(height=6, seed=2, integrity=True)
        built = {
            "make": get_spec("ps").make(config),
            "build_variant": build_variant("ps", config),
            "build_scheduled": build_scheduled("ps", config, window=4).controller,
            "kvstore": ObliviousKVStore.create("ps", config, directory_buckets=8)._oram,
        }
        missing = [path for path, controller in built.items() if controller.integrity is None]
        assert missing == []

    def test_config_switch_leaves_plain_yardstick_alone(self):
        """The plain controller has no ORAM layout for the trees to cover."""
        config = small_config(height=5, seed=2, integrity=True)
        controller = build_variant("plain", config)
        assert controller.integrity is None
        controller.write(1, b"plain")
        assert controller.read(1).data.rstrip(b"\x00") == b"plain"
        with pytest.raises(ValueError, match="no memory layout"):
            enable_integrity(controller)

    def test_commit_persists_root_witness(self):
        controller = self._controller()
        domain = enable_integrity(controller)
        controller.write(1, b"payload")
        assert domain.root_sequence > 0
        assert domain.load_persisted_root() == domain.recompute_root()
        assert controller.stats.get("integrity_commits") >= 1
        domain.detach()

    def test_crash_points_follow_discipline(self):
        controller = self._controller()
        domain = enable_integrity(controller)
        assert domain.discipline == "lazy"
        labels = controller.crash_points()
        for label in domain.crash_points():
            assert label in labels
        domain.detach()


def _record_commits(domain):
    """Log every commit as ``(dirty, addresses, datas, expected)``.

    ``dirty`` is the line tree's dirty leaves just before the commit's
    propagation; ``addresses``/``datas`` are the commit's integrity burst;
    ``expected`` maps the line address of every node on each dirty leaf's
    path to its sibling group's digests in index order, read off the line
    tree at issue time.
    """
    memory = domain.c.memory
    tree = domain.line_tree
    arity = tree.arity
    commits = []
    propagate = domain.propagate
    issue_path = memory.issue_path

    def recording_propagate():
        commits.append((tree.dirty_leaves,))
        propagate()

    def recording_issue_path(addresses, access, arrival, kind, datas=None):
        if kind is RequestKind.INTEGRITY:
            dirty = commits[-1][0]
            expected = {
                domain.node_address(level, index): b"".join(
                    tree.node(level, (index // arity) * arity + j)
                    for j in range(arity)
                )
                for leaf in dirty
                for level, index in ((0, leaf), *tree.ancestors(leaf))
            }
            commits[-1] = (dirty, list(addresses), list(datas), expected)
        return issue_path(addresses, access, arrival, kind, datas)

    domain.propagate = recording_propagate
    memory.issue_path = recording_issue_path
    return commits


def _drive_commits(discipline, accesses=12):
    controller = build_variant("ps", small_config(height=6, seed=5))
    domain = enable_integrity(controller, discipline=discipline)
    commits = _record_commits(domain)
    for addr in range(accesses):
        controller.write(addr, bytes([addr]) * 4)
        controller.read((addr * 7) % accesses)
    domain.detach()
    assert len(commits) == 2 * accesses
    assert any(dirty for dirty, *_ in commits), "no commit dirtied the line tree"
    return domain, commits


class TestLinePackedCommit:
    """A lazy commit writes the witness alone; an eager one also writes
    each dirty leaf's group-line path, the witness last."""

    def test_lazy_commit_writes_only_the_witness(self):
        domain, commits = _drive_commits("lazy")
        for _, addresses, datas, _ in commits:
            assert addresses == [domain.root_line]
            assert datas == [None]  # the witness goes through _persist_root

    def test_eager_commit_writes_each_dirty_leafs_group_path(self):
        domain, commits = _drive_commits("eager")
        tree = domain.line_tree
        for dirty, addresses, _, _ in commits:
            assert addresses[:-1] == [
                domain.node_address(level, index)
                for leaf in dirty
                for level, index in ((0, leaf), *tree.ancestors(leaf))
            ]
            assert addresses[-1] == domain.root_line

    def test_node_line_content_is_its_group_in_index_order(self):
        domain, commits = _drive_commits("eager")
        line_bytes = domain.line_tree.arity * DIGEST_BYTES
        for _, addresses, datas, expected in commits:
            assert datas[-1] is None  # the witness goes through _persist_root
            for address, data in zip(addresses[:-1], datas[:-1]):
                assert len(data) == line_bytes
                assert data == expected[address]


def test_ps_int_integrity_lines_per_access_pinned():
    """Timed integrity lines per ps access with integrity on, at height 10
    on this stream:
    167.2 with the binary one-digest-per-line tree over the whole image,
    53.7 with the arity-4 line-packed tree, 11.0 once each ORAM tree was
    its own bucket tree and only the residual region (flat PosMap, scratch
    lines) climbed the line-packed tree, and exactly 1 — the witness —
    now that a lazy commit stops persisting group lines that nothing
    reads: recovery rebuilds the residual tree's interior digests from
    the image."""
    controller = get_spec("ps").make(small_config(height=10, seed=3, integrity=True))
    rng = random.Random(99)
    accesses = 80
    for _ in range(accesses):
        addr = rng.randrange(512)
        if rng.randrange(2):
            controller.write(addr, addr.to_bytes(4, "little"))
        else:
            controller.read(addr)
    assert controller.stats.get("integrity_commits") == accesses
    assert controller.stats.get("integrity_node_writes") == accesses


class TestBucketTree:
    """Each ORAM tree region is its own Merkle tree (docs/INTEGRITY.md)."""

    REGION = TreeRegion(base=0, height=4, z=4, line_bytes=64)

    def _tree(self):
        memory = NVMMainMemory(PCM_TIMING)
        return BucketIntegrityTree(memory, self.REGION), memory

    def _store(self, tree, memory, address, data):
        memory.store_line(address, data)
        tree.update_line(address)

    def test_differential_vs_uncached(self):
        """Random batches of path write-backs, off-path stores (like
        recovery's restores) and repeated stores: the cached root equals
        the from-scratch root after every batch."""
        tree, memory = self._tree()
        region = self.REGION
        rng = random.Random(4321)
        roots = {tree.root}
        for batch in range(30):
            kind = batch % 3
            if kind == 0:  # a whole path, every slot
                leaf = rng.randrange(1 << region.height)
                for level in range(region.height + 1):
                    bucket = (1 << level) - 1 + (leaf >> (region.height - level))
                    for address in region.bucket_addresses(bucket):
                        self._store(tree, memory, address, bytes([batch]) * 8)
            else:  # scattered single-slot stores, some repeated
                lines = [rng.randrange(region.num_buckets * region.z)
                         for _ in range(rng.randrange(1, 6))]
                for line in lines + lines[:1]:
                    self._store(tree, memory, line * 64, bytes([rng.randrange(256)]) * 8)
            root = tree.root
            assert root == tree.recompute_root()
            assert tree.audit() == []
            roots.add(root)
        assert len(roots) > 20

    def test_path_write_back_closure_is_the_path(self):
        tree, memory = self._tree()
        region = self.REGION
        leaf = 5
        path = [(1 << level) - 1 + (leaf >> (region.height - level))
                for level in range(region.height + 1)]
        for bucket in path:
            for address in region.bucket_addresses(bucket):
                self._store(tree, memory, address, b"slot")
        assert tree._closure(tree._dirty) == path[::-1]
        assert tree.propagate() is None
        # Exactly the path's buckets hold a digest, and the cached root is
        # the from-scratch one.
        assert sorted(tree._digests) == path
        assert tree.root == tree.recompute_root()

    def test_detects_tampering_and_replay(self):
        tree, memory = self._tree()
        self._store(tree, memory, 64, b"version-1")
        stale = memory.load_line(64)
        self._store(tree, memory, 64, b"version-2")
        root = tree.root
        memory._image[1] = stale  # replay the old line behind the tree
        assert tree.audit() == [64]
        assert tree.recompute_root() != root

    def test_out_of_region(self):
        tree, _ = self._tree()
        with pytest.raises(ValueError):
            tree.update_line(self.REGION.size_bytes)


class TestPathAlignedDomain:
    """ORAM tree regions cost no timed integrity line."""

    @staticmethod
    def _drive(controller, accesses, seed=3):
        rng = random.Random(seed)
        for _ in range(accesses):
            addr = rng.randrange(32)
            if rng.randrange(2):
                controller.write(addr, bytes([addr]) * 4)
            else:
                controller.read(addr)

    def test_ps_int_access_closure_is_its_path(self):
        controller = get_spec("ps").make(small_config(height=6, seed=5, integrity=True))
        domain = controller.integrity
        buckets = domain.bucket_trees[0]
        height = controller.tree.height
        closures = []
        propagate = buckets.propagate

        def recording_propagate():
            if buckets._dirty:  # reading the root re-propagates a clean tree
                closures.append(buckets._closure(buckets._dirty))
            propagate()

        buckets.propagate = recording_propagate
        self._drive(controller, 40)
        assert len(closures) == 40
        for closure in closures:
            leaf = closure[0] - ((1 << height) - 1)
            assert 0 <= leaf < 1 << height
            path = {
                (address - buckets.base) // buckets.line_bytes // buckets.z
                for address in controller.tree.path_addresses(leaf)
            }
            assert len(closure) == height + 1
            assert set(closure) == path

    @pytest.mark.parametrize("variant,integrity", [case("ps", True), case("rcr-ps", True)])
    def test_no_timed_integrity_line_inside_a_tree_region(self, variant, integrity):
        controller = get_spec(variant).make(small_config(height=6, seed=5, integrity=integrity))
        domain = controller.integrity
        memory = controller.memory
        issued = []
        issue_path = memory.issue_path

        def recording_issue_path(addresses, access, arrival, kind, datas=None):
            if kind is RequestKind.INTEGRITY:
                assert access is Access.WRITE
                issued.extend(addresses)
            return issue_path(addresses, access, arrival, kind, datas)

        memory.issue_path = recording_issue_path
        self._drive(controller, 30)
        assert len(domain.bucket_trees) == (2 if variant == "rcr-ps" else 1)
        assert issued
        for address in issued:
            assert domain.node_base <= address < domain.node_end
            for tree in domain.bucket_trees:
                assert not tree.base <= address < tree.end

    def test_unprotected_store_raises(self):
        controller = get_spec("ps").make(small_config(height=5, seed=2, integrity=True))
        domain = controller.integrity
        with pytest.raises(ValueError, match="outside the integrity-protected"):
            controller.memory.store_line(domain.node_end, b"stray")
        # Digest lines themselves are not protected content, and do not raise.
        controller.memory.store_line(domain.node_end - 64, b"group")
