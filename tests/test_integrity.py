"""Tests for the integrity subsystem: the Merkle tree and the persistence domain."""

import random

import pytest

from repro.config import PCM_TIMING, small_config
from repro.core.variants import build_variant, get_spec
from repro.integrity import MerkleIntegrityTree, enable_integrity
from repro.integrity.tree import DIGEST_BYTES
from repro.mem.controller import NVMMainMemory
from repro.mem.request import RequestKind


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
        touched = t.propagate()
        assert t.dirty_leaves == ()
        # Leaves first, then one entry per affected interior node.
        assert (0, 0) in touched and (0, 1) in touched
        assert touched[-1] == (t.height, 0)

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
        assert domain.tree.audit() == []
        assert domain.tree.updates > 0
        domain.detach()

    def test_attack_on_image_detected(self):
        controller = self._controller()
        domain = enable_integrity(controller)
        controller.write(1, b"protected")
        tree = domain.tree
        root = tree.root
        # Attacker flips a protected line behind the tree's back.
        victim = next(
            line for line in controller.memory._image
            if line * 64 < domain.protect_bytes
        )
        controller.memory._image[victim] = b"evil"
        corrupt = tree.audit(expected_root=root)
        assert victim * 64 in corrupt
        domain.detach()

    def test_survives_crash_recovery_cycle(self):
        controller = self._controller()
        domain = enable_integrity(controller)
        controller.write(1, b"before")
        controller.crash()
        assert controller.recover()
        assert domain.recovery_violations == []
        controller.write(2, b"after")
        assert domain.tree.audit() == []
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
        updates = domain.tree.updates
        controller.write(3, b"untracked")
        assert domain.tree.updates == updates

    def test_policy_less_controller_rejected(self):
        memory = NVMMainMemory(PCM_TIMING)

        class Bare:
            pass

        bare = Bare()
        bare.memory = memory
        with pytest.raises(ValueError):
            enable_integrity(bare)

    def test_commit_persists_root_witness(self):
        controller = self._controller()
        domain = enable_integrity(controller)
        controller.write(1, b"payload")
        assert domain.root_sequence > 0
        assert domain.load_persisted_root() == domain.tree.recompute_root()
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
    """Log every lazy commit as ``(touched, addresses, datas, expected)``.

    ``touched`` is what ``propagate()`` returned; ``addresses``/``datas``
    are the commit's integrity burst; ``expected`` maps each touched
    node's line address to its sibling group's digests in index order,
    read off the tree at issue time.
    """
    memory = domain.c.memory
    tree = domain.tree
    arity = tree.arity
    commits = []
    propagate = tree.propagate
    issue_path = memory.issue_path

    def recording_propagate():
        touched = propagate()
        commits.append((touched,))
        return touched

    def recording_issue_path(addresses, access, arrival, kind, datas=None):
        if kind is RequestKind.INTEGRITY:
            touched = commits[-1][0]
            expected = {
                domain.node_address(level, index): b"".join(
                    tree.node(level, (index // arity) * arity + j)
                    for j in range(arity)
                )
                for level, index in touched
            }
            commits[-1] = (touched, list(addresses), list(datas), expected)
        return issue_path(addresses, access, arrival, kind, datas)

    tree.propagate = recording_propagate
    memory.issue_path = recording_issue_path
    return commits


class TestLinePackedCommit:
    """A lazy commit writes each sibling-group line once, the witness last."""

    def test_lazy_commit_writes_each_group_line_once(self):
        controller = build_variant("ps", small_config(height=6, seed=5))
        domain = enable_integrity(controller)
        commits = _record_commits(domain)
        for addr in range(12):
            controller.write(addr, bytes([addr]) * 4)
            controller.read((addr * 7) % 12)
        arity = domain.tree.arity
        assert len(commits) == 24
        for touched, addresses, _, expected in commits:
            groups = {(level, index // arity) for level, index in touched}
            assert len(addresses) == 1 + len(groups)
            assert len(set(addresses)) == len(addresses)
            assert addresses[-1] == domain.root_line
            assert set(addresses[:-1]) == set(expected)
        domain.detach()

    def test_node_line_content_is_its_group_in_index_order(self):
        controller = build_variant("ps", small_config(height=6, seed=5))
        domain = enable_integrity(controller)
        commits = _record_commits(domain)
        for addr in range(6):
            controller.write(addr, b"group")
        line_bytes = domain.tree.arity * DIGEST_BYTES
        for _, addresses, datas, expected in commits:
            assert datas[-1] is None  # the witness goes through _persist_root
            for address, data in zip(addresses[:-1], datas[:-1]):
                assert len(data) == line_bytes
                assert data == expected[address]
        domain.detach()


def test_ps_int_integrity_lines_per_access_pinned():
    """Line packing: a ps-int access at height 10 writes far fewer
    integrity lines than the binary one-digest-per-line layout, which
    wrote 167.2 per access on this stream; the arity-4 tree writes 53.7."""
    controller = get_spec("ps-int").make(small_config(height=10, seed=3))
    rng = random.Random(99)
    accesses = 80
    for _ in range(accesses):
        addr = rng.randrange(512)
        if rng.randrange(2):
            controller.write(addr, addr.to_bytes(4, "little"))
        else:
            controller.read(addr)
    per_access = controller.stats.get("integrity_node_writes") / accesses
    assert per_access < 60
