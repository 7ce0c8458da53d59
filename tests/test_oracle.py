"""Unit tests for the tolerant reference (repro.crashsim.oracle).

The same core checks engine cells (integer addresses, zero blocks as the
default) and service cells (string keys, ``None`` for an absent key), so
every case runs over both key spaces against a dict-backed store.
"""

import pytest

from repro.crashsim.oracle import TolerantReference

KEY_SPACES = {
    "address": (list(range(8)), bytes(4), "address {}".format),
    "string": ([f"key-{i}" for i in range(8)], None, "key {!r}".format),
}


@pytest.fixture(params=sorted(KEY_SPACES))
def space(request):
    keys, default, describe = KEY_SPACES[request.param]
    store = {}
    reference = TolerantReference(default, describe)

    def read_back(key):
        return store.get(key, default)

    return keys, store, reference, read_back


def _put(store, reference, key, value):
    """An acknowledged write: the store holds it and the reference knows."""
    store[key] = value
    reference.acknowledge(key, value)


class TestSweep:
    def test_clean_state_is_consistent(self, space):
        keys, store, reference, read_back = space
        _put(store, reference, keys[1], b"one!")
        report = reference.sweep(keys, read_back)
        assert report.consistent, report.violations
        assert report.checked == len(keys)

    def test_acknowledged_write_lost(self, space):
        keys, store, reference, read_back = space
        _put(store, reference, keys[2], b"keep")
        del store[keys[2]]
        report = reference.sweep(keys, read_back)
        assert len(report.violations) == 1
        assert "acknowledged value lost" in report.violations[0]
        assert reference.describe(keys[2]) in report.violations[0]

    def test_torn_in_flight_write(self, space):
        keys, store, reference, read_back = space
        _put(store, reference, keys[3], b"old!")
        reference.stage(keys[3], b"new!")
        for survivor in (b"old!", b"new!"):
            store[keys[3]] = survivor
            assert reference.sweep(keys, read_back).consistent
        store[keys[3]] = b"ol!w"
        report = reference.sweep(keys, read_back)
        assert len(report.violations) == 1
        assert "in-flight op torn" in report.violations[0]

    def test_bystander_found_only_by_span_sweep(self, space):
        keys, store, reference, read_back = space
        _put(store, reference, keys[0], b"zero")
        store[keys[5]] = b"ghst"  # a key the workload never touched
        assert reference.sweep(reference.tracked(), read_back).consistent
        report = reference.sweep(keys, read_back)
        assert len(report.violations) == 1
        assert "untouched key corrupted" in report.violations[0]
        assert reference.describe(keys[5]) in report.violations[0]

    def test_sweep_twice_gives_the_same_verdict(self, space):
        keys, store, reference, read_back = space
        _put(store, reference, keys[1], b"one!")
        reference.stage(keys[4], b"four")
        store[keys[1]] = b"lost"
        store[keys[4]] = b"torn"
        first = reference.sweep(keys, read_back)
        second = reference.sweep(keys, read_back)
        assert not first.consistent
        assert first == second
        assert keys[4] in reference.window

    def test_acknowledged_delete_must_stay_gone(self, space):
        keys, store, reference, read_back = space
        _put(store, reference, keys[6], b"gone")
        store.pop(keys[6])
        reference.acknowledge(keys[6], reference.default)
        assert reference.sweep(keys, read_back).consistent
        store[keys[6]] = b"gone"
        assert not reference.sweep(keys, read_back).consistent


class TestLiveReads:
    def test_read_out_of_tolerance_is_reported_by_every_sweep(self, space):
        keys, store, reference, read_back = space
        _put(store, reference, keys[2], b"real")
        reference.check_read(keys[2], b"stal")
        for _ in range(2):
            report = reference.sweep(keys, read_back)
            assert len(report.violations) == 1
            assert "read returned a value out of tolerance" in report.violations[0]

    def test_read_of_a_staged_value_is_tolerated(self, space):
        keys, store, reference, read_back = space
        _put(store, reference, keys[2], b"old!")
        reference.stage(keys[2], b"new!")
        reference.check_read(keys[2], b"new!")
        reference.check_read(keys[2], b"old!")
        assert reference.sweep(keys, read_back).consistent


class TestWindow:
    def test_tolerance_set_is_last_acknowledged_plus_staged(self, space):
        keys, _, reference, _ = space
        reference.acknowledge(keys[1], b"ack!")
        reference.stage(keys[1], b"try1")
        reference.stage(keys[1], b"try2")
        reference.stage(keys[2], reference.expected(keys[2]))  # a read
        assert reference.window == {
            keys[1]: frozenset({b"ack!", b"try1", b"try2"}),
            keys[2]: frozenset({reference.default}),
        }

    def test_acknowledgement_closes_the_window(self, space):
        keys, _, reference, _ = space
        reference.stage(keys[1], b"try1")
        reference.acknowledge(keys[1], b"done")
        assert reference.window == {}
        assert reference.expected(keys[1]) == b"done"

    def test_settle_adopts_survivors(self, space):
        keys, store, reference, read_back = space
        _put(store, reference, keys[3], b"old!")
        reference.stage(keys[3], b"new!")
        store[keys[3]] = b"new!"
        assert reference.settle(read_back) == {keys[3]: b"new!"}
        assert reference.window == {}
        assert reference.expected(keys[3]) == b"new!"

    def test_settle_keeps_an_out_of_tolerance_key(self, space):
        keys, store, reference, read_back = space
        _put(store, reference, keys[3], b"old!")
        reference.stage(keys[3], b"new!")
        store[keys[3]] = b"torn"
        assert reference.settle(read_back) == {}
        assert keys[3] in reference.window
        assert reference.expected(keys[3]) == b"old!"
        assert not reference.sweep(keys, read_back).consistent
