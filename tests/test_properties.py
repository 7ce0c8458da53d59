"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.ctr import CtrCipher
from repro.crypto.prf import Prf
from repro.util.bitops import (
    bucket_index,
    bucket_level,
    lowest_common_level,
    path_bucket_indices,
)


class TestBitopsProperties:
    @given(
        height=st.integers(min_value=1, max_value=20),
        data=st.data(),
    )
    def test_paths_share_prefix_up_to_lcl(self, height, data):
        a = data.draw(st.integers(min_value=0, max_value=(1 << height) - 1))
        b = data.draw(st.integers(min_value=0, max_value=(1 << height) - 1))
        lcl = lowest_common_level(a, b, height)
        assert 0 <= lcl <= height
        for level in range(lcl + 1):
            assert bucket_index(a, level, height) == bucket_index(b, level, height)
        if lcl < height:
            assert bucket_index(a, lcl + 1, height) != bucket_index(b, lcl + 1, height)

    @given(height=st.integers(min_value=1, max_value=16), data=st.data())
    def test_path_indices_strictly_increasing_levels(self, height, data):
        path = data.draw(st.integers(min_value=0, max_value=(1 << height) - 1))
        indices = path_bucket_indices(path, height)
        assert [bucket_level(i) for i in indices] == list(range(height + 1))

    @given(height=st.integers(min_value=1, max_value=16), data=st.data())
    def test_distinct_leaves_distinct_leaf_buckets(self, height, data):
        a = data.draw(st.integers(min_value=0, max_value=(1 << height) - 1))
        b = data.draw(st.integers(min_value=0, max_value=(1 << height) - 1))
        if a != b:
            assert bucket_index(a, height, height) != bucket_index(b, height, height)


class TestCryptoProperties:
    @given(
        plaintext=st.binary(min_size=0, max_size=256),
        iv=st.integers(min_value=0, max_value=(1 << 64) - 1),
    )
    def test_roundtrip(self, plaintext, iv):
        cipher = CtrCipher(b"prop-key")
        assert cipher.decrypt(cipher.encrypt(plaintext, iv), iv) == plaintext

    @given(
        plaintext=st.binary(min_size=1, max_size=64),
        iv=st.integers(min_value=0, max_value=1 << 32),
        flip=st.integers(min_value=0),
    )
    def test_any_bitflip_detected(self, plaintext, iv, flip):
        from repro.crypto.ctr import IntegrityError

        cipher = CtrCipher(b"prop-key")
        wire = bytearray(cipher.encrypt(plaintext, iv))
        wire[flip % len(wire)] ^= 1 << (flip % 8)
        try:
            recovered = cipher.decrypt(bytes(wire), iv)
        except IntegrityError:
            return
        raise AssertionError(f"tamper undetected: {recovered!r}")

    @given(message=st.binary(max_size=64))
    def test_prf_stability(self, message):
        assert Prf(b"k").evaluate(message) == Prf(b"k").evaluate(message)


class TestOrderedEvictionProperties:
    @given(
        n=st.integers(min_value=1, max_value=30),
        capacity=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(deadline=None)
    def test_constraints_always_hold(self, n, capacity, seed):
        from repro.core.ordered_eviction import SlotWrite, plan_rounds
        from repro.util.rng import DeterministicRNG

        rng = DeterministicRNG(seed)
        lines = [i * 64 for i in range(n)]
        targets = lines[:]
        rng.shuffle(targets)
        writes = [
            SlotWrite(
                targets[i],
                b"w",
                old_line=lines[i] if rng.random() < 0.8 else None,
            )
            for i in range(n)
        ]
        bounce = [100_000 + i * 64 for i in range(32)]
        rounds = plan_rounds(writes, capacity, bounce)
        position = {}
        bounced_lines = set()
        for idx, round_writes in enumerate(rounds):
            assert len(round_writes) <= capacity
            for write in round_writes:
                if write.line_address >= 100_000:
                    bounced_lines.add(idx)
                position.setdefault(write.line_address, idx)
        by_new = {w.line_address: w for w in writes}
        for write in writes:
            old = write.old_line
            if old is None or old == write.line_address or old not in by_new:
                continue
            # Either properly ordered, or the block was bounced earlier.
            ordered = position[write.line_address] <= position[old]
            assert ordered or bounced_lines, (write.line_address, old)


class TestORAMFunctionalProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),  # address
                st.booleans(),  # write?
                st.binary(min_size=0, max_size=8),  # payload
            ),
            min_size=1,
            max_size=40,
        ),
        variant=st.sampled_from(["baseline", "ps"]),
    )
    def test_oram_behaves_like_a_dict(self, ops, variant):
        from repro.config import small_config
        from repro.core.variants import build_variant

        controller = build_variant(variant, small_config(height=5, seed=1))
        model = {}
        for address, is_write, payload in ops:
            if is_write:
                controller.write(address, payload)
                model[address] = payload + bytes(64 - len(payload))
            else:
                got = controller.read(address).data
                assert got == model.get(address, bytes(64))


class TestCrashDurabilityProperty:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.binary(min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=25,
        ),
        crash_after=st.integers(min_value=0, max_value=24),
    )
    def test_acknowledged_writes_survive_any_crash_point(self, writes, crash_after):
        from repro.config import small_config
        from repro.core.variants import build_variant

        controller = build_variant("ps", small_config(height=5, seed=2))
        model = {}
        for index, (address, payload) in enumerate(writes):
            controller.write(address, payload)
            model[address] = payload + bytes(64 - len(payload))
            if index == crash_after:
                controller.crash()
                assert controller.recover()
        controller.crash()
        assert controller.recover()
        for address, expected in model.items():
            assert controller.read(address).data == expected
