"""Request batching and coalescing for one shard's worker.

A shard worker takes a run of requests as a **batch** and executes it
as one unit against the shard's oblivious store.  Planning is a pure
function (:func:`plan_batch`) so the semantics are unit-testable without
an ORAM in sight:

* **read coalescing** — duplicate reads of a key within the batch share
  one underlying ORAM fetch (the second and later are free);
* **read-your-writes** — a read positioned after a write to the same key
  in the batch window is served from the staged value, no fetch at all;
* **write coalescing, FIFO per key** — the batch commits exactly one
  final mutation per key: the *last* staged put/delete in FIFO order.
  Earlier writes are acknowledged when the final one lands, which is a
  legal linearization (their values were superseded before anyone could
  observe them) and preserves per-key FIFO order exactly;
* **deterministic commit order** — final mutations commit in the FIFO
  order of their last staged position, so a batch replays identically
  under the crash harness.

Reads of keys the batch never wrote are linearized *before* the batch's
writes (loads execute first), which is the standard group-commit
ordering: every requester sees either the full pre-batch state or its
own staged value.

Service-level ``delete`` is idempotent (no ``KeyError`` for an absent
key): with write coalescing there is no single request a "key missing"
error could be attributed to, and idempotent deletes are the norm for a
service API anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError

OP_GET = "get"
OP_PUT = "put"
OP_DELETE = "delete"

_VALID_OPS = (OP_GET, OP_PUT, OP_DELETE)


class Request:
    """One client operation travelling through the service.

    The shard worker settles it synchronously: :meth:`resolve` or
    :meth:`fail` sets ``done``, and :meth:`wait` hands back the outcome.
    """

    __slots__ = ("op", "key", "value", "shard", "result", "error",
                 "arrival_cycle", "finish_cycle", "done")

    def __init__(self, op: str, key: str, value: Optional[bytes] = None):
        if op not in _VALID_OPS:
            raise ValueError(f"unknown op {op!r}; choose from {_VALID_OPS}")
        if op == OP_PUT and value is None:
            raise ValueError("put requires a value")
        self.op = op
        self.key = key
        self.value = value
        self.shard: Optional[int] = None
        self.result: Optional[bytes] = None
        self.error: Optional[BaseException] = None
        #: Modeled timing (shard-clock cycles), filled by the worker.
        self.arrival_cycle: int = 0
        self.finish_cycle: int = 0
        self.done = False

    def resolve(self, result: Optional[bytes]) -> None:
        self.result = result
        self.done = True

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done = True

    def wait(self) -> Optional[bytes]:
        """The result; re-raises the failure if there was one."""
        if not self.done:
            raise ServiceError(f"request {self.op} {self.key!r} was never executed")
        if self.error is not None:
            raise self.error
        return self.result


#: Per-request execution outcome, decided at plan time:
#: ``("load", key)``  — serve from the batch's shared fetch of ``key``;
#: ``("value", v)``   — serve the staged bytes directly (read-your-writes);
#: ``("missing",)``   — key staged as deleted: report absent, no fetch;
#: ``("ack",)``       — mutation: acknowledge once the batch commits.
Outcome = Tuple


@dataclass
class BatchPlan:
    """The executable shape of one batch (see module docstring)."""

    #: Unique keys to fetch from the store, in first-need FIFO order.
    loads: List[str] = field(default_factory=list)
    #: Final mutation per key (value ``None`` = delete), in FIFO order of
    #: each key's *last* staged op.
    commits: List[Tuple[str, Optional[bytes]]] = field(default_factory=list)
    #: One outcome per request, in request order.
    outcomes: List[Outcome] = field(default_factory=list)
    coalesced_reads: int = 0
    coalesced_writes: int = 0

    @property
    def store_ops(self) -> int:
        """Store operations the plan will actually issue."""
        return len(self.loads) + len(self.commits)


def plan_batch(requests: List[Request]) -> BatchPlan:
    """Fold a FIFO request window into loads + final commits + outcomes."""
    plan = BatchPlan()
    #: key -> staged content (None = tombstone) for writes in this batch.
    staged: Dict[str, Optional[bytes]] = {}
    #: key -> position of its last staged mutation (commit ordering).
    staged_pos: Dict[str, int] = {}
    load_set = set()

    for position, request in enumerate(requests):
        key = request.key
        if request.op == OP_GET:
            if key in staged:
                value = staged[key]
                plan.outcomes.append(
                    ("missing",) if value is None else ("value", value)
                )
                plan.coalesced_reads += 1
            elif key in load_set:
                plan.outcomes.append(("load", key))
                plan.coalesced_reads += 1
            else:
                load_set.add(key)
                plan.loads.append(key)
                plan.outcomes.append(("load", key))
        else:  # put / delete
            if key in staged:
                plan.coalesced_writes += 1
            staged[key] = request.value if request.op == OP_PUT else None
            staged_pos[key] = position
            plan.outcomes.append(("ack",))

    for key in sorted(staged, key=staged_pos.__getitem__):
        plan.commits.append((key, staged[key]))
    return plan
