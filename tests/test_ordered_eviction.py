"""Tests for the limited-WPQ ordered eviction (paper Section 4.2.3)."""

import pytest

from repro.config import WPQConfig, small_config
from repro.core.variants import build_variant
from repro.core.ordered_eviction import SlotWrite, plan_rounds
from repro.errors import WPQOverflowError
from repro.util.rng import DeterministicRNG


def _write(new, old=None):
    return SlotWrite(line_address=new, wire=b"w", old_line=old)


class TestPlanRounds:
    def test_everything_written_once(self):
        writes = [_write(i * 64) for i in range(10)]
        rounds = plan_rounds(writes, capacity=4)
        flat = [w.line_address for r in rounds for w in r]
        assert sorted(flat) == [i * 64 for i in range(10)]

    def test_capacity_respected(self):
        writes = [_write(i * 64) for i in range(10)]
        for round_writes in plan_rounds(writes, capacity=3):
            assert len(round_writes) <= 3

    def _round_of(self, rounds):
        position = {}
        for index, round_writes in enumerate(rounds):
            for write in round_writes:
                position[write.line_address] = index
        return position

    def test_chain_ordering(self):
        # c moves from 128 to 192; b moves from 64 to 128; a from 0 to 64.
        writes = [
            _write(64, old=0),
            _write(128, old=64),
            _write(192, old=128),
            _write(0),  # dummy landing on a's old slot
        ]
        rounds = plan_rounds(writes, capacity=1)
        position = self._round_of(rounds)
        # Each block's new-line write commits no later than the overwrite
        # of its old line.
        assert position[64] <= position[0]
        assert position[128] <= position[64]
        assert position[192] <= position[128]

    def test_swap_cycle_grouped(self):
        writes = [_write(0, old=64), _write(64, old=0)]
        rounds = plan_rounds(writes, capacity=2)
        position = self._round_of(rounds)
        assert position[0] == position[64]  # one atomic round

    def test_cycle_exceeding_capacity_rejected(self):
        writes = [_write(0, old=64), _write(64, old=0)]
        with pytest.raises(WPQOverflowError):
            plan_rounds(writes, capacity=1)

    def test_self_move_is_unconstrained(self):
        writes = [_write(0, old=0), _write(64)]
        rounds = plan_rounds(writes, capacity=1)
        assert len(rounds) == 2

    def test_old_line_outside_eviction_ignored(self):
        writes = [_write(0, old=99999)]
        assert len(plan_rounds(writes, capacity=1)) == 1

    def test_random_instances_always_valid(self):
        rng = DeterministicRNG(77)
        for _ in range(30):
            n = rng.randint(4, 24)
            lines = [i * 64 for i in range(n)]
            shuffled = lines[:]
            rng.shuffle(shuffled)
            # Random permutation moves: block at lines[i] -> shuffled[i].
            writes = [
                _write(shuffled[i], old=lines[i] if rng.random() < 0.7 else None)
                for i in range(n)
            ]
            rounds = plan_rounds(writes, capacity=max(4, n // 2))
            position = {}
            for idx, round_writes in enumerate(rounds):
                for write in round_writes:
                    position[write.line_address] = idx
            by_new = {w.line_address: w for w in writes}
            for write in writes:
                if write.old_line is None or write.old_line == write.line_address:
                    continue
                if write.old_line in by_new:
                    assert position[write.line_address] <= position[write.old_line]


class TestLimitedWPQController:
    """End-to-end PS-ORAM with 4-entry WPQs (the paper's small sizing)."""

    @pytest.fixture
    def small_wpq_ps(self):
        config = small_config(
            height=6, seed=5, wpq=WPQConfig(data_entries=4, posmap_entries=4)
        )
        return build_variant("ps", config)

    def test_functional_correctness(self, small_wpq_ps):
        rng = DeterministicRNG(1)
        model = {}
        for i in range(150):
            addr = rng.randrange(40)
            value = bytes([i % 256])
            small_wpq_ps.write(addr, value)
            model[addr] = value + bytes(63)
        for addr, want in model.items():
            assert small_wpq_ps.read(addr).data == want

    def test_multiple_rounds_per_eviction(self, small_wpq_ps):
        small_wpq_ps.write(0, b"x")
        # A height-6 path has 28 slots; with a 4-entry WPQ that is at least
        # 7 rounds per eviction.
        assert small_wpq_ps.stats.get("ordered_eviction_rounds") >= 7

    def test_durability_with_small_wpq(self, small_wpq_ps):
        rng = DeterministicRNG(2)
        model = {}
        for i in range(100):
            addr = rng.randrange(30)
            value = bytes([i % 256, 7])
            small_wpq_ps.write(addr, value)
            model[addr] = value + bytes(62)
        small_wpq_ps.crash()
        assert small_wpq_ps.recover()
        for addr, want in model.items():
            assert small_wpq_ps.read(addr).data == want

    def test_mid_sequence_crash_loses_no_durable_block(self, small_wpq_ps):
        """Crash between ordered rounds: every block keeps >= 1 copy."""
        from repro.errors import SimulatedCrash

        rng = DeterministicRNG(3)
        model = {}
        for i in range(60):
            addr = rng.randrange(25)
            value = bytes([i % 256, 9])
            small_wpq_ps.write(addr, value)
            model[addr] = value + bytes(62)

        # Crash at the 3rd committed round of the next eviction.
        fired = []

        def hook(label):
            if label == "step5:after-end":
                fired.append(label)
                if len(fired) == 3:
                    raise SimulatedCrash(label)

        small_wpq_ps.crash_hook = hook
        try:
            small_wpq_ps.write(5, b"inflight")
        except SimulatedCrash:
            pass
        small_wpq_ps.crash_hook = None
        small_wpq_ps.crash()
        assert small_wpq_ps.recover()
        for addr, want in model.items():
            if addr == 5:
                got = small_wpq_ps.read(addr).data
                assert got in (want, b"inflight" + bytes(56))
            else:
                assert small_wpq_ps.read(addr).data == want
