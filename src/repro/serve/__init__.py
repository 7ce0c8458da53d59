"""ORAM-as-a-service: sharded, batched, crash-consistent front end.

The serving layer over the PR 4 engine registry and the PR 5 crash
story: hash-partitioned shards (:mod:`repro.serve.sharding`), batch
planning with read/write coalescing (:mod:`repro.serve.batcher`),
per-shard workers (:mod:`repro.serve.worker`) behind a deterministic
front end that runs every request inline on the calling thread
(:mod:`repro.serve.frontend`), service-level crash conformance
(:mod:`repro.serve.conformance`) and a modeled closed-loop load
generator (:mod:`repro.serve.loadgen`).  CLI: ``python -m repro.serve``.
"""

from repro.serve.batcher import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    BatchPlan,
    Request,
    plan_batch,
)
from repro.serve.conformance import ServiceCellResult, run_service_cell
from repro.serve.frontend import SERVICE_QUIESCENT, ShardedKVService
from repro.serve.loadgen import LoadResult, run_load
from repro.serve.sharding import balance_histogram, partition, route_digest, shard_of
from repro.serve.worker import ShardWorker

__all__ = [
    "OP_DELETE",
    "OP_GET",
    "OP_PUT",
    "BatchPlan",
    "LoadResult",
    "Request",
    "SERVICE_QUIESCENT",
    "ServiceCellResult",
    "ShardWorker",
    "ShardedKVService",
    "balance_histogram",
    "partition",
    "plan_batch",
    "route_digest",
    "run_load",
    "run_service_cell",
    "shard_of",
]
