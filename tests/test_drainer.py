"""Unit tests for the drainer's atomic dual-WPQ rounds."""

import pytest

from repro.config import PCM_TIMING
from repro.core.drainer import Drainer
from repro.errors import PersistenceError
from repro.mem.controller import NVMMainMemory
from repro.mem.request import RequestKind


@pytest.fixture
def setup():
    memory = NVMMainMemory(PCM_TIMING)
    committed = {}

    def apply_entry(address, path_id):
        committed[address] = path_id
        return 4096 + (address // 8) * 64

    drainer = Drainer(memory, data_capacity=8, posmap_capacity=8,
                      apply_posmap_entry=apply_entry)
    return memory, drainer, committed


class TestRoundAtomicity:
    def test_start_opens_both_queues(self, setup):
        _, drainer, _ = setup
        drainer.start()
        assert drainer.data_wpq.round_open
        assert drainer.posmap_wpq.round_open

    def test_push_outside_round_rejected(self, setup):
        _, drainer, _ = setup
        with pytest.raises(PersistenceError):
            drainer.push_block(0, b"x")

    def test_flush_applies_data_and_entries(self, setup):
        memory, drainer, committed = setup
        drainer.start()
        drainer.push_block(0, b"wire-bytes")
        drainer.push_posmap_entry(4096, address=3, path_id=7)
        drainer.end()
        finish = drainer.flush(0)
        assert finish > 0
        assert memory.load_line(0) == b"wire-bytes"
        assert committed == {3: 7}
        assert memory.traffic.writes_of(RequestKind.DATA_PATH) == 1
        assert memory.traffic.writes_of(RequestKind.PERSIST) == 1

    def test_flush_without_end_applies_nothing(self, setup):
        memory, drainer, committed = setup
        drainer.start()
        drainer.push_block(0, b"wire")
        drainer.flush(0)
        assert memory.load_line(0) is None
        assert committed == {}


class TestCrashSemantics:
    def test_crash_before_end_discards_both(self, setup):
        memory, drainer, committed = setup
        drainer.start()
        drainer.push_block(0, b"data")
        drainer.push_posmap_entry(4096, address=1, path_id=2)
        blocks, entries = drainer.crash_flush()
        assert blocks == 0 and entries == 0
        assert memory.load_line(0) is None
        assert committed == {}

    def test_crash_after_end_completes_both(self, setup):
        memory, drainer, committed = setup
        drainer.start()
        drainer.push_block(0, b"data")
        drainer.push_posmap_entry(4096, address=1, path_id=2)
        drainer.end()
        blocks, entries = drainer.crash_flush()
        assert blocks == 1 and entries == 1
        assert memory.load_line(0) == b"data"
        assert committed == {1: 2}

    def test_closed_round_kept_open_round_discarded(self, setup):
        memory, drainer, committed = setup
        drainer.start()
        drainer.push_block(0, b"kept")
        drainer.push_posmap_entry(4096, address=1, path_id=2)
        drainer.end()
        drainer.start()
        drainer.push_block(64, b"lost")
        drainer.push_posmap_entry(4096, address=3, path_id=4)
        assert drainer.crash_flush() == (1, 1)
        assert memory.load_line(0) == b"kept"
        assert memory.load_line(64) is None
        assert committed == {1: 2}
        assert not drainer.data_wpq.round_open
        assert not drainer.posmap_wpq.round_open

    def test_no_partial_commit_possible(self, setup):
        """Data committed while metadata discarded cannot happen."""
        _, drainer, _ = setup
        drainer.start()
        drainer.push_block(0, b"data")
        drainer.push_posmap_entry(4096, address=1, path_id=2)
        # Whatever the crash timing, both queues share the round boundary.
        blocks, entries = drainer.crash_flush()
        assert (blocks == 0) == (entries == 0)


class TestVersionRecording:
    def test_version_recorded_on_flush_and_crash(self):
        memory = NVMMainMemory(PCM_TIMING)
        version = [41]
        drainer = Drainer(
            memory, 4, 4, lambda a, p: 0,
            version_line=8192, version_provider=lambda: version[0],
        )
        drainer.start()
        drainer.end()
        drainer.flush(0)
        assert int.from_bytes(memory.load_line(8192)[:8], "little") == 41
        version[0] = 99
        drainer.crash_flush()
        assert int.from_bytes(memory.load_line(8192)[:8], "little") == 99
