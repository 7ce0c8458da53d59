"""Unit tests for the write-pending queues."""

import pytest

from repro.errors import PersistenceError, WPQOverflowError
from repro.mem.wpq import WritePendingQueue


class TestRoundProtocol:
    def test_push_requires_open_round(self):
        wpq = WritePendingQueue("q", 4)
        with pytest.raises(PersistenceError):
            wpq.push(0, b"x")

    def test_double_begin_rejected(self):
        wpq = WritePendingQueue("q", 4)
        wpq.begin_round()
        with pytest.raises(PersistenceError):
            wpq.begin_round()

    def test_end_without_begin_rejected(self):
        wpq = WritePendingQueue("q", 4)
        with pytest.raises(PersistenceError):
            wpq.end_round()

    def test_capacity_enforced(self):
        wpq = WritePendingQueue("q", 2)
        wpq.begin_round()
        wpq.push(0, b"a")
        wpq.push(64, b"b")
        with pytest.raises(WPQOverflowError):
            wpq.push(128, b"c")


class TestDrainSemantics:
    def test_drain_returns_closed_rounds_fifo(self):
        wpq = WritePendingQueue("q", 8)
        wpq.begin_round()
        wpq.push(0, b"a")
        wpq.push(64, b"b")
        wpq.end_round()
        assert wpq.drain() == [(0, b"a"), (64, b"b")]
        assert wpq.occupancy == 0

    def test_drain_excludes_open_round(self):
        wpq = WritePendingQueue("q", 8)
        wpq.begin_round()
        wpq.push(0, b"a")
        # No end signal: nothing is durable yet.
        assert wpq.drain() == []
        assert wpq.occupancy == 1


class TestCrashSemantics:
    def test_open_round_discarded_on_crash(self):
        wpq = WritePendingQueue("q", 8)
        wpq.begin_round()
        wpq.push(0, b"lost")
        survivors = wpq.crash()
        assert survivors == []
        assert wpq.discarded_total == 1
        assert not wpq.round_open

    def test_closed_round_survives_crash(self):
        wpq = WritePendingQueue("q", 8)
        wpq.begin_round()
        wpq.push(0, b"kept")
        wpq.end_round()
        assert wpq.crash() == [(0, b"kept")]

    def test_mixed_rounds_split_correctly(self):
        wpq = WritePendingQueue("q", 8)
        wpq.begin_round()
        wpq.push(0, b"kept")
        wpq.end_round()
        wpq.begin_round()
        wpq.push(64, b"lost")
        survivors = wpq.crash()
        assert survivors == [(0, b"kept")]
        assert wpq.discarded_total == 1
