"""Tests for the application layer: the oblivious KV store."""

import pytest

from repro.apps.kvstore import ObliviousKVStore, StoreFullError
from repro.config import small_config
from repro.core.variants import build_variant
from repro.engine.registry import build_scheduled, variant_specs
from repro.errors import SimulatedCrash
from repro.util.rng import DeterministicRNG


def _store(height=8, buckets=32, variant="ps"):
    controller = build_variant(variant, small_config(height=height, seed=21))
    return ObliviousKVStore(controller, directory_buckets=buckets)


class TestKVStoreBasics:
    def test_put_get(self):
        store = _store()
        store.put("alpha", b"first value")
        assert store.get("alpha") == b"first value"

    def test_missing_key(self):
        store = _store()
        with pytest.raises(KeyError):
            store.get("ghost")
        assert "ghost" not in store

    def test_overwrite(self):
        store = _store()
        store.put("k", b"v1")
        store.put("k", b"v2-longer-value")
        assert store.get("k") == b"v2-longer-value"

    def test_multiblock_values(self):
        store = _store()
        big = bytes(range(256)) * 3  # 768 bytes -> 13 chunks
        store.put("big", big)
        assert store.get("big") == big

    def test_empty_value(self):
        store = _store()
        store.put("empty", b"")
        assert store.get("empty") == b""

    def test_delete(self):
        store = _store()
        store.put("k", b"v")
        free_before = store.free_blocks
        store.delete("k")
        assert "k" not in store
        assert store.free_blocks == free_before + 1
        with pytest.raises(KeyError):
            store.delete("k")

    def test_space_reclaimed_on_overwrite(self):
        store = _store()
        store.put("k", b"x" * 200)  # 4 blocks
        baseline = store.free_blocks
        store.put("k", b"y" * 200)
        assert store.free_blocks == baseline  # old chunks reclaimed

    def test_many_keys(self):
        store = _store(height=9, buckets=64)
        rng = DeterministicRNG(3)
        model = {}
        for i in range(60):
            key = f"key-{rng.randrange(40)}"
            value = bytes([i % 256]) * rng.randint(1, 100)
            store.put(key, value)
            model[key] = value
        for key, value in model.items():
            assert store.get(key) == value

    def test_bucket_overflow_reported(self):
        # 1-bucket directory: the 5th key must fail loudly.
        store = _store(buckets=1)
        for i in range(4):
            store.put(f"k{i}", b"v")
        with pytest.raises(StoreFullError):
            store.put("k4", b"v")

    def test_fingerprints_enumerable(self):
        store = _store()
        store.put("a", b"1")
        store.put("b", b"2")
        assert len(list(store.keys_fingerprints())) == 2


class TestKVStoreCrash:
    def test_acknowledged_puts_survive(self):
        store = _store()
        rng = DeterministicRNG(4)
        model = {}
        for i in range(30):
            key = f"doc-{rng.randrange(15)}"
            value = bytes([i]) * rng.randint(1, 120)
            store.put(key, value)
            model[key] = value
        store.crash()
        assert store.recover()
        for key, value in model.items():
            assert store.get(key) == value

    def test_interrupted_put_is_atomic(self):
        store = _store()
        store.put("victim", b"old-value")
        controller = store._oram
        fired = []

        def hook(label):
            # Crash inside one of the chunk/directory ORAM accesses.
            if label == "step5:after-end" and len(fired) < 1:
                fired.append(label)
                raise SimulatedCrash(label)

        controller.crash_hook = hook
        try:
            store.put("victim", b"new-value-" * 10)
        except SimulatedCrash:
            pass
        controller.crash_hook = None
        store.crash()
        assert store.recover()
        assert store.get("victim") in (b"old-value", b"new-value-" * 10)

    def test_allocator_rebuilt_consistently(self):
        store = _store()
        store.put("a", b"x" * 200)
        store.put("b", b"y" * 100)
        free_before = store.free_blocks
        store.crash()
        assert store.recover()
        assert store.free_blocks == free_before
        store.put("c", b"z" * 150)  # allocator still functional
        assert store.get("c") == b"z" * 150


class TestKVStoreLifecycle:
    def test_create_builds_variant_by_name(self):
        store = ObliviousKVStore.create(
            "ps", small_config(height=6, seed=21), directory_buckets=16
        )
        store.put("k", b"v")
        assert store.get("k") == b"v"
        assert store.controller.supports_crash_consistency()

    def test_close_is_idempotent_and_guards_ops(self):
        from repro.apps.kvstore import StoreClosedError

        store = _store(height=6, buckets=16)
        store.put("k", b"v")
        assert store.close() == 0
        assert store.closed
        assert store.close() == 0  # second close is a no-op
        for operation in (
            lambda: store.put("k", b"v2"),
            lambda: store.get("k"),
            lambda: store.delete("k"),
            lambda: store.settle(),
        ):
            with pytest.raises(StoreClosedError):
                operation()

    def test_recover_reopens_closed_store(self):
        store = _store(height=6, buckets=16)
        store.put("k", b"v")
        store.close()
        store.crash()
        assert store.recover()
        assert not store.closed
        assert store.get("k") == b"v"

    def test_settle_reclaims_orphans_of_failed_put(self):
        # A put that fails after writing chunks (here: directory bucket
        # full) leaks its freshly allocated blocks in the volatile
        # allocator; settle() re-scans the durable directory and gets
        # them back.
        store = _store(height=6, buckets=4)
        colliding = [
            key for key in (f"key-{i}" for i in range(4000))
            if store._bucket_of(store._fingerprint(key)) == 0
        ][:5]
        assert len(colliding) == 5
        for key in colliding[:4]:
            store.put(key, b"x")
        free_before = store.free_blocks
        with pytest.raises(StoreFullError):
            store.put(colliding[4], b"orphaned value")
        assert store.free_blocks < free_before  # blocks leaked
        assert store.settle() >= 1
        assert store.free_blocks == free_before

    def test_exhausted_pool_raises_store_full_not_index_error(self):
        store = _store(height=4, buckets=4)
        with pytest.raises(StoreFullError) as excinfo:
            for i in range(10_000):
                store.put(f"fill-{i}", b"x" * 200)
        assert "full" in str(excinfo.value) or "out of data blocks" in str(
            excinfo.value
        )

    def test_allocator_rejects_nonpositive_count(self):
        store = _store(height=6, buckets=16)
        with pytest.raises(ValueError):
            store._allocate(0)


class TestKVStoreTiming:
    """A get's chunk reads depend on its directory bucket's content."""

    @staticmethod
    def _get_gaps(window):
        """Per chunk read: its start cycle minus the directory read's
        ``fetch_finish_cycle``, over 4 gets after 20 two-chunk puts."""
        controller = build_scheduled("ps", small_config(height=8, sched_window=window,
                                                        seed=7))
        store = ObliviousKVStore(controller, directory_buckets=16)
        for i in range(20):
            store.put(f"key-{i}", bytes([i]) * 100)
        bare = getattr(controller, "controller", controller)
        inner, results = bare.access, []

        def recording_access(*args, **kwargs):
            results.append(inner(*args, **kwargs))
            return results[-1]

        bare.access = recording_access
        gaps = []
        for i in range(4):
            results.clear()
            assert store.get(f"key-{i}") == bytes([i]) * 100
            directory, *chunks = results
            assert len(chunks) == 2
            gaps += [chunk.start_cycle - directory.fetch_finish_cycle for chunk in chunks]
        return gaps

    def test_serial_chunk_reads_start_after_the_directory_fetch(self):
        assert min(self._get_gaps(1)) >= 0

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP 'Start a kv get's chunk reads after its directory "
        "fetch': behind a window deeper than 1 the scheduler launches the "
        "chunk read 1 cycle after the directory read starts, before the "
        "bucket naming the chunk's block has been fetched",
    )
    def test_windowed_chunk_reads_start_after_the_directory_fetch(self):
        assert min(self._get_gaps(4)) >= 0


def _accesses(store):
    return store.controller.stats.get("accesses")


class TestKVStoreAccessCounts:
    """Every directory commit is one ORAM access (read-modify-write)."""

    VALUE = bytes(range(150))  # 3 chunks of 62 payload bytes

    def test_put_costs_chunks_plus_one(self):
        store = _store()
        before = _accesses(store)
        store.put("k", self.VALUE)
        assert _accesses(store) - before == 3 + 1

    def test_overwrite_costs_chunks_plus_one(self):
        store = _store()
        store.put("k", b"old")
        before = _accesses(store)
        store.put("k", self.VALUE)
        assert _accesses(store) - before == 3 + 1

    def test_get_costs_chunks_plus_one(self):
        store = _store()
        store.put("k", self.VALUE)
        before = _accesses(store)
        assert store.get("k") == self.VALUE
        assert _accesses(store) - before == 3 + 1

    def test_delete_costs_one(self):
        store = _store()
        store.put("k", self.VALUE)
        before = _accesses(store)
        store.delete("k")
        assert _accesses(store) - before == 1
        with pytest.raises(KeyError):
            store.delete("k")
        assert _accesses(store) - before == 2  # the miss is one access too

    def test_opening_a_blank_store_costs_nothing(self):
        controller = build_variant("ps", small_config(height=8, seed=21))
        assert controller.memory.blank
        store = ObliviousKVStore(controller, directory_buckets=32)
        assert _accesses(store) == 0
        assert store.free_blocks == store._data_blocks

    @pytest.mark.parametrize("rescan", ["reopen", "settle"])
    def test_rescanning_a_written_image_reads_every_bucket(self, rescan):
        store = _store(buckets=32)
        store.put("k", self.VALUE)
        assert not store.controller.memory.blank
        before = _accesses(store)
        assert getattr(store, rescan)() == 0
        assert _accesses(store) - before == 32
        assert store.get("k") == self.VALUE


def _ps_points(variant):
    return [
        (variant, point)
        for point in build_variant(variant, small_config(height=6, seed=3)).crash_points()
    ]


class TestKVStoreCommitCrash:
    @pytest.mark.parametrize(
        "variant,point", _ps_points("ps") + _ps_points("rcr-ps")
    )
    def test_crash_inside_the_commit_recovers_old_or_new(self, variant, point):
        store = _store(height=6, buckets=16, variant=variant)
        store.put("victim", b"old-value")
        store.put("bystander", b"untouched")
        new_value = b"new-value-" * 10  # 2 chunks, so the commit is access 3
        controller = store.controller
        accesses = [0]
        fired = []

        def hook(label):
            if label == "phase:position-lookup":
                accesses[0] += 1
            if accesses[0] == 3 and label == point and not fired:
                fired.append(label)
                raise SimulatedCrash(label)

        controller.crash_hook = hook
        try:
            store.put("victim", new_value)
        except SimulatedCrash:
            pass
        controller.crash_hook = None
        assert fired == [point]
        store.crash()
        assert store.recover()
        assert store.get("victim") in (b"old-value", new_value)
        assert store.get("bystander") == b"untouched"
        store.put("after", b"still usable")
        assert store.get("after") == b"still usable"


class TestKVStoreFullBucket:
    def test_full_bucket_put_leaves_the_bucket_unchanged(self):
        store = _store(height=6, buckets=4)
        colliding = [
            key for key in (f"key-{i}" for i in range(4000))
            if store._bucket_of(store._fingerprint(key)) == 0
        ][:5]
        for key in colliding[:4]:
            store.put(key, b"x")
        bucket_before = store.controller.read(1).data
        before = _accesses(store)
        with pytest.raises(StoreFullError):
            store.put(colliding[4], b"y" * 100)  # 2 chunks
        assert _accesses(store) - before == 2 + 1
        assert store.controller.read(1).data == bucket_before
        assert colliding[4] not in store
        for key in colliding[:4]:
            assert store.get(key) == b"x"


_ORAM_VARIANTS = [
    spec.name for spec in variant_specs() if spec.hierarchy != "plain"
]


class TestKVStoreAcrossVariants:
    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("variant", _ORAM_VARIANTS)
    def test_round_trip_crash_recover(self, variant, window):
        controller = build_scheduled(
            variant, small_config(height=6, seed=5, sched_window=window)
        )
        store = ObliviousKVStore(controller, directory_buckets=16)
        model = {}
        for i in range(12):
            key = f"key-{i % 7}"
            value = bytes([i]) * (1 + 23 * i)
            store.put(key, value)
            model[key] = value
        store.delete("key-3")
        del model["key-3"]
        for key, value in model.items():
            assert store.get(key) == value
        assert "key-3" not in store
        store.crash()
        if not controller.supports_crash_consistency():
            assert not store.recover()  # volatile variants fail honestly
            return
        assert store.recover()
        for key, value in model.items():
            assert store.get(key) == value
        assert "key-3" not in store
        store.put("key-3", b"back")
        assert store.get("key-3") == b"back"

    def test_all_nine_oram_variants_covered(self):
        assert len(_ORAM_VARIANTS) == 9


class TestKVStoreOverPlain:
    def test_plain_store_opens_but_rejects_the_first_put(self):
        # The commit is a read-modify-write, which the non-ORAM yardstick
        # has no on-chip path for (tests/test_fullnvm_plain.py).
        controller = build_variant("plain", small_config(height=8, seed=21))
        store = ObliviousKVStore(controller, directory_buckets=32)
        assert _accesses(store) == 0
        with pytest.raises(ValueError, match="read-modify-write"):
            store.put("k", b"v")
