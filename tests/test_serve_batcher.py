"""Tests for batch planning and coalescing semantics (repro.serve.batcher)."""

import pytest

from repro.errors import ServiceError
from repro.serve.batcher import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    Request,
    plan_batch,
)


def _batch(*ops):
    return [Request(*op) for op in ops]


class TestRequest:
    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            Request("fetch", "k")

    def test_put_requires_value(self):
        with pytest.raises(ValueError):
            Request(OP_PUT, "k")

    def test_latch_resolve(self):
        request = Request(OP_GET, "k")
        assert not request.done
        request.resolve(b"v")
        assert request.done
        assert request.wait() == b"v"

    def test_latch_failure_reraises(self):
        request = Request(OP_GET, "k")
        request.fail(KeyError("k"))
        with pytest.raises(KeyError):
            request.wait()

    def test_wait_before_execution_raises(self):
        with pytest.raises(ServiceError):
            Request(OP_GET, "k").wait()


class TestReadCoalescing:
    def test_duplicate_reads_share_one_load(self):
        plan = plan_batch(_batch(
            (OP_GET, "a"), (OP_GET, "a"), (OP_GET, "a"),
        ))
        assert plan.loads == ["a"]
        assert plan.coalesced_reads == 2
        assert plan.outcomes == [("load", "a")] * 3
        assert plan.store_ops == 1

    def test_distinct_reads_load_separately(self):
        plan = plan_batch(_batch((OP_GET, "a"), (OP_GET, "b")))
        assert plan.loads == ["a", "b"]
        assert plan.coalesced_reads == 0


class TestReadYourWrites:
    def test_get_after_put_serves_staged_value(self):
        plan = plan_batch(_batch(
            (OP_PUT, "a", b"new"), (OP_GET, "a"),
        ))
        assert plan.loads == []  # no fetch at all
        assert plan.outcomes == [("ack",), ("value", b"new")]
        assert plan.coalesced_reads == 1

    def test_get_after_delete_reports_missing(self):
        plan = plan_batch(_batch(
            (OP_DELETE, "a"), (OP_GET, "a"),
        ))
        assert plan.outcomes == [("ack",), ("missing",)]
        assert plan.loads == []

    def test_get_before_put_sees_pre_batch_state(self):
        # Loads linearize before the batch's writes (group commit): a
        # read positioned before the write still fetches the old value.
        plan = plan_batch(_batch(
            (OP_GET, "a"), (OP_PUT, "a", b"new"),
        ))
        assert plan.loads == ["a"]
        assert plan.outcomes == [("load", "a"), ("ack",)]


class TestWriteCoalescing:
    def test_last_put_wins(self):
        plan = plan_batch(_batch(
            (OP_PUT, "a", b"1"), (OP_PUT, "a", b"2"), (OP_PUT, "a", b"3"),
        ))
        assert plan.commits == [("a", b"3")]
        assert plan.coalesced_writes == 2
        assert plan.outcomes == [("ack",)] * 3

    def test_delete_after_put_commits_tombstone(self):
        plan = plan_batch(_batch(
            (OP_PUT, "a", b"1"), (OP_DELETE, "a"),
        ))
        assert plan.commits == [("a", None)]

    def test_put_after_delete_commits_value(self):
        plan = plan_batch(_batch(
            (OP_DELETE, "a"), (OP_PUT, "a", b"back"),
        ))
        assert plan.commits == [("a", b"back")]

    def test_commit_order_follows_last_staged_position(self):
        plan = plan_batch(_batch(
            (OP_PUT, "a", b"1"), (OP_PUT, "b", b"2"), (OP_PUT, "a", b"3"),
        ))
        # a's final mutation (position 2) commits after b's (position 1).
        assert plan.commits == [("b", b"2"), ("a", b"3")]


class TestMixedBatch:
    def test_store_ops_accounting(self):
        plan = plan_batch(_batch(
            (OP_GET, "a"),           # load a
            (OP_PUT, "b", b"x"),     # commit b
            (OP_GET, "b"),           # staged value, free
            (OP_GET, "a"),           # coalesced with first load
            (OP_PUT, "b", b"y"),     # coalesces with first put
            (OP_DELETE, "c"),        # commit c tombstone
        ))
        assert plan.loads == ["a"]
        assert plan.commits == [("b", b"y"), ("c", None)]
        assert plan.store_ops == 3
        assert plan.coalesced_reads == 2
        assert plan.coalesced_writes == 1

    def test_empty_batch(self):
        plan = plan_batch([])
        assert plan.loads == [] and plan.commits == [] and plan.store_ops == 0

    def test_plan_is_pure(self):
        requests = _batch((OP_PUT, "a", b"1"), (OP_GET, "a"))
        first = plan_batch(requests)
        second = plan_batch(requests)
        assert first.loads == second.loads
        assert first.commits == second.commits
        assert first.outcomes == second.outcomes
        assert not any(r.done for r in requests)  # planning never resolves
