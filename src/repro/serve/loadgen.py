"""Deterministic closed-loop load generator over the sharded service.

Measures what the service *model* delivers: C clients issue requests
back-to-back (closed loop), each routed to its key's shard; a shard
serves one batch at a time, draining up to ``batch_max`` queued requests
whenever it is free.  Per-batch service cost is the **real** cycle cost
of driving the shard's ORAM engine (the worker executes every batch
against its controller and the cycle delta is read off the shard clock),
and the event loop overlaps shards in simulated time — N shards are N
independent ORAM memories, the Palermo memory-level-parallelism argument
at the serving layer.

Reported metrics are therefore *modeled* requests/sec and latency
percentiles (shard-clock cycles converted at the configured core
frequency), exactly like every figure bench in this repo reports modeled
time — plus host wall-clock throughput as a secondary honesty number.
The whole run is a pure function of its parameters: a seeded RNG drives
client op streams, and shard execution is inline and deterministic.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.serve.batcher import OP_GET, OP_PUT, Request
from repro.serve.frontend import ShardedKVService
from repro.util.rng import DeterministicRNG


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


@dataclass
class LoadResult:
    """One load-generation point: requests/sec + latency percentiles."""

    shards: int
    clients: int
    operations: int
    batch_max: int
    modeled_rps: float
    modeled_p50_us: float
    modeled_p99_us: float
    modeled_makespan_ms: float
    wall_rps: float
    batches: int
    mean_batch_fill: float
    coalesced_reads: int
    coalesced_writes: int
    store_ops: int

    def to_dict(self) -> Dict:
        return dict(self.__dict__)


def run_load(
    shards: int = 4,
    clients: int = 8,
    total_ops: int = 300,
    variant: str = "ps",
    height: int = 8,
    batch_max: int = 8,
    seed: int = 7,
    num_keys: int = 96,
    value_bytes: int = 48,
    read_fraction: float = 0.7,
    service: Optional[ShardedKVService] = None,
    window: int = 1,
    integrity: bool = False,
) -> LoadResult:
    """Drive one deterministic closed-loop run; see the module docstring."""
    if service is None:
        # Directory sized to the key universe (worst case: one shard
        # holds every key) so hash collisions can't overflow a bucket.
        service = ShardedKVService(
            shards=shards, variant=variant, height=height,
            directory_buckets=max(32, 2 * num_keys),
            batch_max=batch_max, seed=seed,
            window=window, integrity=integrity,
        ).start()
    rng = DeterministicRNG(seed)
    keys = [f"item-{index}" for index in range(num_keys)]

    # Preload every key (untimed): gets must hit, puts must overwrite.
    for index, key in enumerate(keys):
        service.put(key, bytes([index % 256]) * value_bytes)

    client_rngs = [rng.substream(f"client-{c}") for c in range(clients)]
    core_hz = service.workers[0].config.core.freq_hz
    # Preload traffic also flows through the workers; snapshot their
    # counters so the reported stats cover only the timed phase.
    baseline = dict(service.status()["totals"])

    # Discrete-event closed loop.  Times are shard-clock cycles relative
    # to the post-preload epoch; ties break on a monotone sequence number
    # so the heap order — and thus the whole run — is deterministic.
    shard_free = [0] * service.num_shards
    queues: List[List[Tuple[int, int, Request]]] = [
        [] for _ in range(service.num_shards)
    ]
    events: List[Tuple[int, int, str, int]] = []
    sequence = 0
    for client in range(clients):
        heapq.heappush(events, (0, sequence, "client", client))
        sequence += 1

    issued = 0
    completed = 0
    latencies_cycles: List[int] = []
    makespan = 0
    wall_start = time.perf_counter()

    def serve_shard(shard: int, now: int) -> None:
        """Drain one batch if the shard is free and work is queued."""
        nonlocal sequence, completed, makespan
        if not queues[shard] or shard_free[shard] > now:
            return
        window = queues[shard][: service.batch_max]
        del queues[shard][: len(window)]
        worker = service.workers[shard]
        batch = [request for (_, _, request) in window]
        before = worker.controller.now
        worker.execute_batch(batch)
        cycles = worker.controller.now - before
        done_at = now + cycles
        shard_free[shard] = done_at
        makespan = max(makespan, done_at)
        for arrival, client, _ in window:
            latencies_cycles.append(done_at - arrival)
            completed += 1
            heapq.heappush(events, (done_at, sequence, "client", client))
            sequence += 1
        heapq.heappush(events, (done_at, sequence, "shard", shard))
        sequence += 1

    while completed < total_ops and events:
        now, _, kind, ident = heapq.heappop(events)
        if kind == "client":
            if issued >= total_ops:
                continue  # closed loop winds down
            issued += 1
            crng = client_rngs[ident]
            key = crng.choice(keys)
            if crng.random() < read_fraction:
                request = Request(OP_GET, key)
            else:
                payload = bytes([crng.randint(0, 255)]) * value_bytes
                request = Request(OP_PUT, key, payload)
            request.shard = service.shard_for(key)
            queues[request.shard].append((now, ident, request))
            serve_shard(request.shard, now)
        else:
            serve_shard(ident, now)

    wall_seconds = time.perf_counter() - wall_start

    totals = {
        name: value - baseline[name]
        for name, value in service.status()["totals"].items()
    }
    latencies_cycles.sort()
    makespan_s = makespan / core_hz if makespan else 0.0
    batches = totals["batches"]
    return LoadResult(
        shards=service.num_shards,
        clients=clients,
        operations=completed,
        batch_max=service.batch_max,
        modeled_rps=round(completed / makespan_s, 1) if makespan_s else 0.0,
        modeled_p50_us=round(
            _percentile(latencies_cycles, 0.50) / core_hz * 1e6, 2),
        modeled_p99_us=round(
            _percentile(latencies_cycles, 0.99) / core_hz * 1e6, 2),
        modeled_makespan_ms=round(makespan_s * 1e3, 3),
        wall_rps=round(completed / wall_seconds, 1) if wall_seconds else 0.0,
        batches=batches,
        mean_batch_fill=round(completed / batches, 2) if batches else 0.0,
        coalesced_reads=totals["coalesced_reads"],
        coalesced_writes=totals["coalesced_writes"],
        store_ops=totals["store_ops"],
    )
