"""The sharded ORAM-as-a-service front end.

:class:`ShardedKVService` hash-partitions the key space over N
:class:`~repro.serve.worker.ShardWorker`\\ s (one crash-consistent engine
+ oblivious store each) and offers a dict-like API on top.  Every request
runs inline on the calling thread: :meth:`execute` groups a request list
by shard and runs the batches in shard order, and ``put``/``get``/
``delete`` are one-request :meth:`execute` calls.  Every service
behaviour is therefore reproducible bit-for-bit from a seed.  Shards
overlap in modeled time (the load generator's event loop), not on host
threads: the paper's parallelism is memory-level, inside the controller.

Crash story (the service-level analogue of the paper's power-failure
model): :meth:`crash` cuts power to *every* shard at once — in-flight
requests fail with :class:`ServiceCrashedError` (they were never
acknowledged; after recovery each affected key legally holds its old or
new value), then :meth:`recover` power-cycles every shard and the
service resumes.  Injection points come from
:meth:`crash_points`: every shard's engine/policy labels, prefixed
``shard<i>:``, exactly mirroring the single-controller surface the
crashsim matrix drives.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceStoppedError
from repro.serve.batcher import OP_DELETE, OP_GET, OP_PUT, Request
from repro.serve.sharding import shard_of
from repro.serve.worker import ShardWorker

#: Service-level pseudo-point: the power cut lands between batches, when
#: every shard is quiescent (mirrors crashsim's "quiescent" cell).
SERVICE_QUIESCENT = "service:quiescent"


class ShardedKVService:
    """N independent ORAM shards behind one key-value front door."""

    def __init__(
        self,
        shards: int = 4,
        variant: str = "ps",
        height: int = 8,
        directory_buckets: int = 32,
        batch_max: int = 16,
        seed: int = 1,
        key: bytes = b"repro-psoram-key",
        mode: str = "inline",
        pad_batches: bool = False,
        window: int = 1,
        integrity: bool = False,
    ):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        # ``mode`` remains only so existing ``mode="inline"`` callers
        # (benchmarks/e2e) keep working; it has no other legal value.
        if mode != "inline":
            raise ValueError(f"unknown mode {mode!r}: thread mode was removed; "
                             "the service only runs inline")
        self.num_shards = shards
        self.variant = variant
        self.batch_max = batch_max
        self.workers: List[ShardWorker] = [
            ShardWorker(
                index,
                variant=variant,
                height=height,
                directory_buckets=directory_buckets,
                seed=seed,
                key=key,
                pad_batches=pad_batches,
                window=window,
                integrity=integrity,
            )
            for index in range(shards)
        ]
        self._started = False
        self._crashed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardedKVService":
        """Open the front door; requests are refused until this runs."""
        self._started = True
        return self

    def stop(self) -> None:
        """Graceful shutdown: drain every shard's window, settle stores."""
        if not self._started:
            return
        self._started = False
        for worker in self.workers:
            if not worker.crashed:
                worker.drain()  # window barrier before the final settle
                worker.store.settle()

    def __enter__(self) -> "ShardedKVService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """The shard a key routes to (pure function of key and N)."""
        return shard_of(key, self.num_shards)

    def route(self, ops: Sequence[Tuple]) -> List[Request]:
        """Build routed (but unexecuted) requests from op tuples.

        The crash-conformance cell uses this to keep request handles
        across a mid-burst power failure: :meth:`run_batches` may unwind
        with a :class:`SimulatedCrash`, and acknowledgement state then
        lives on these objects.
        """
        requests: List[Request] = []
        for op_tuple in ops:
            op, key = op_tuple[0], op_tuple[1]
            value = op_tuple[2] if len(op_tuple) > 2 else None
            request = Request(op, key, value)
            request.shard = self.shard_for(key)
            requests.append(request)
        return requests

    def run_batches(self, requests: Sequence[Request]) -> None:
        """Execute routed requests in the canonical deterministic order.

        Groups by shard preserving per-shard FIFO order, chunks each
        group by ``batch_max``, and executes shard 0's batches first,
        then shard 1's, and so on — the order the conformance reference
        replays.  A simulated crash propagates to the caller with every
        unexecuted request still pending.
        """
        if not self._started:
            raise ServiceStoppedError("service not started (call start())")
        by_shard: List[List[Request]] = [[] for _ in self.workers]
        for request in requests:
            by_shard[request.shard].append(request)
        for shard, group in enumerate(by_shard):
            for base in range(0, len(group), self.batch_max):
                self.workers[shard].execute_batch(
                    group[base : base + self.batch_max]
                )

    def execute(self, ops: Sequence[Tuple]) -> List[Request]:
        """Deterministic batched execution of ``(op, key[, value])`` tuples.

        Returns the resolved (or failed) requests in input order.
        """
        requests = self.route(ops)
        self.run_batches(requests)
        return requests

    # -- dict-like helpers -----------------------------------------------

    def _one(self, op: str, key: str, value: Optional[bytes] = None):
        return self.execute([(op, key, value)])[0].wait()

    def put(self, key: str, value: bytes) -> None:
        self._one(OP_PUT, key, value)

    def get(self, key: str) -> bytes:
        result = self._one(OP_GET, key)
        assert result is not None
        return result

    def delete(self, key: str) -> None:
        self._one(OP_DELETE, key)

    # ------------------------------------------------------------------
    # crash surface
    # ------------------------------------------------------------------

    def crash_points(self) -> List[str]:
        """Every injectable label, shard-prefixed, plus the quiescent one."""
        labels = [SERVICE_QUIESCENT]
        for worker in self.workers:
            labels.extend(
                f"shard{worker.index}:{label}" for label in worker.crash_points()
            )
        return labels

    def crash(self) -> None:
        """Whole-service power failure: every shard loses power at once.

        The service refuses new requests until :meth:`recover`.
        """
        for worker in self.workers:
            worker.power_fail()
        self._crashed = True
        self._started = False

    def recover(self) -> bool:
        """Power-cycle recovery of every shard; reopens the front door.

        True only if *every* shard recovered (all-or-nothing: a service
        over a volatile variant honestly reports False).
        """
        recovered = all([worker.recover() for worker in self.workers])
        self._crashed = not recovered
        if recovered:
            self._started = True
        return recovered

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def status(self) -> Dict:
        """A JSON-ready snapshot of service + per-shard health/stats."""
        shard_rows = []
        totals = {
            "requests": 0, "batches": 0, "store_ops": 0,
            "coalesced_reads": 0, "coalesced_writes": 0,
            "busy_cycles": 0, "crashes": 0, "recoveries": 0,
        }
        for worker in self.workers:
            row = dict(worker.stats)
            row.update(
                shard=worker.index,
                crashed=worker.crashed,
                free_blocks=worker.store.free_blocks,
                config_seed=worker.config_seed,
            )
            shard_rows.append(row)
            for field in totals:
                totals[field] += worker.stats[field]
        requests = totals["requests"] or 1
        return {
            "variant": self.variant,
            "shards": self.num_shards,
            "batch_max": self.batch_max,
            "started": self._started,
            "crashed": self._crashed,
            "totals": totals,
            "coalesce_rate": round(
                (totals["coalesced_reads"] + totals["coalesced_writes"])
                / requests, 4),
            "per_shard": shard_rows,
        }
