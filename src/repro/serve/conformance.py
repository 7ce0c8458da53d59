"""Service-level crash conformance: the PR 5 contract, lifted to shards.

:func:`run_service_cell` extends the crash-conformance harness
(:mod:`repro.crashsim.conformance`) from one controller to the whole
sharded service: a deterministic request burst is driven through the
inline front end, a power failure is injected mid-burst at any shard's
engine/policy crash point (or between batches for the quiescent cell),
every shard loses power at once, and recovery is checked against the
same tolerant reference the engine cells use
(:class:`~repro.crashsim.oracle.TolerantReference`), keyed by string
with :data:`MISSING` as the value of an absent key:

* every **acknowledged** op (its request resolved before the cut) must
  be durable: acknowledged puts read back exactly, acknowledged deletes
  stay gone;
* every **acknowledged get** returned its key's last acknowledged value
  at that point of the in-order fold (or a value in its tolerance set);
* every **unacknowledged** op is atomic per key: after recovery the key
  holds its last acknowledged value or the value of an unacknowledged
  put to it — never a torn mix, never a value from nowhere;
* **bystander keys** — the whole key universe is swept, so a recovery
  that corrupts a key the burst never touched still fails the cell;
* the conformance contract is honest about variant class, exactly as in
  PR 5: a service over a crash-consistent variant must recover every
  shard; a service over a volatile variant must report ``False`` from
  :meth:`~repro.serve.frontend.ShardedKVService.recover` (a volatile
  shard claiming recovery is the violation).

Determinism: the burst, the armed point and the injection skip count are
keyed substreams of the cell seed, so a violating cell replays
bit-identically — the same discipline that let PR 5's matrix pin its two
real bugs.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.crashsim.injector import CrashInjector
from repro.crashsim.oracle import TolerantReference
from repro.errors import ServiceCrashedError, SimulatedCrash
from repro.serve.batcher import OP_DELETE, OP_GET, OP_PUT
from repro.serve.frontend import SERVICE_QUIESCENT, ShardedKVService
from repro.util.rng import DeterministicRNG

#: The default value of the tolerant reference: "key absent".
MISSING = None


@dataclass
class ServiceCellResult:
    """Outcome of one service conformance cell (JSON round-trippable)."""

    shards: int
    variant: str
    point: Optional[str]
    rounds: int
    seed: int
    batch_max: int
    height: int
    window: int = 1
    integrity: bool = False
    supports: bool = False
    operations: int = 0
    acknowledged: int = 0
    crashes_fired: int = 0
    quiescent_crashes: int = 0
    recoveries: int = 0
    coalesced_ops: int = 0
    violations: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def consistent(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__, violations=list(self.violations))


def _build_service(shards, variant, height, batch_max, seed,
                   integrity=False, window=1) -> ShardedKVService:
    return ShardedKVService(
        shards=shards,
        variant=variant,
        height=height,
        batch_max=batch_max,
        seed=seed,
        integrity=integrity,
        window=window,
    ).start()


def _burst(ops_rng: DeterministicRNG, keys: List[str], length: int,
           round_no: int) -> List[Tuple]:
    """One deterministic mixed burst over the key universe."""
    ops: List[Tuple] = []
    for i in range(length):
        key = ops_rng.choice(keys)
        draw = ops_rng.random()
        if draw < 0.6:
            value = bytes([ops_rng.randint(0, 255), i % 256, round_no % 256])
            # Occasional multi-chunk value exercises chained allocation.
            if ops_rng.random() < 0.15:
                value = value * 40  # 120 bytes -> 2 chunks
            ops.append((OP_PUT, key, value))
        elif draw < 0.9:
            ops.append((OP_GET, key))
        else:
            ops.append((OP_DELETE, key))
    return ops


def run_service_cell(
    shards: int = 2,
    variant: str = "ps",
    point: Optional[str] = None,
    rounds: int = 3,
    seed: int = 1,
    height: int = 6,
    ops_per_burst: int = 24,
    batch_max: int = 4,
    num_keys: int = 12,
    integrity: bool = False,
    window: int = 1,
) -> ServiceCellResult:
    """Run one service-crash conformance cell; see the module docstring.

    ``point=None`` arms a random service crash point each round (fuzzing
    mode); a fixed point — ``shard<i>:<label>`` or
    :data:`SERVICE_QUIESCENT` — pins every round's cut (matrix mode).

    ``window > 1`` runs every shard behind the shared per-shard
    :class:`~repro.engine.sched.WindowScheduler`: batch loads/commits
    stream into the in-flight window and the worker drains to a barrier
    at batch boundaries, so crash cells exercise the scheduler's
    drain-before-power-cut discipline.
    """
    cell_rng = DeterministicRNG(seed)
    ops_rng = cell_rng.substream("service-ops")
    inject_rng = cell_rng.substream("service-inject")

    service = _build_service(shards, variant, height, batch_max, seed,
                             integrity, window)
    supports = all(
        worker.controller.supports_crash_consistency()
        for worker in service.workers
    )
    result = ServiceCellResult(
        shards=shards, variant=variant, point=point, rounds=rounds,
        seed=seed, batch_max=batch_max, height=height, window=window,
        integrity=integrity, supports=supports,
    )
    all_points = service.crash_points()
    if point is not None and point not in all_points:
        raise ValueError(
            f"service over {variant!r} x{shards} has no crash point {point!r}"
        )
    keys = [f"key-{index}" for index in range(num_keys)]
    reference = _new_reference()

    started = time.perf_counter()
    for round_no in range(rounds):
        # -- arm the cut -------------------------------------------------
        armed = point if point is not None else inject_rng.choice(all_points)
        injector = None
        if armed != SERVICE_QUIESCENT:
            shard_label, _, engine_label = armed.partition(":")
            shard_index = int(shard_label[len("shard"):])
            injector = CrashInjector(
                service.workers[shard_index].controller, inject_rng
            )
            # A kvstore op is several ORAM accesses; skipping a uniform
            # number of hits lands the cut anywhere in the burst, so both
            # early (nothing acknowledged) and late (most of the burst
            # durable) power failures get exercised.
            injector.arm(engine_label, skip_hits=inject_rng.randint(0, 20))

        # -- the burst ---------------------------------------------------
        ops = _burst(ops_rng, keys, ops_per_burst, round_no)
        requests = service.route(ops)
        result.operations += len(requests)
        crashed = False
        try:
            service.run_batches(requests)
        except SimulatedCrash:
            crashed = True
        if injector is not None:
            injector.disarm()
        if crashed and injector is not None and injector.fired_point is not None:
            result.crashes_fired += 1
        else:
            result.quiescent_crashes += 1

        # -- fold the burst into the reference ---------------------------
        # Per-key ordering is sound: a key always routes to one shard and
        # shard batches preserve FIFO, so folding in input order applies
        # each key's ops in their true execution order.
        for request in requests:
            acked = request.done and not isinstance(
                request.error, ServiceCrashedError
            )
            if acked:
                result.acknowledged += 1
                if request.op == OP_GET:
                    reference.check_read(
                        request.key,
                        MISSING if request.error is not None else request.result,
                    )
                elif request.error is not None:
                    continue  # semantic failure (e.g. full): state unchanged
                elif request.op == OP_PUT:
                    reference.acknowledge(request.key, request.value)
                else:
                    reference.acknowledge(request.key, MISSING)
            elif request.op in (OP_PUT, OP_DELETE):
                # In flight at the cut: the key may legally recover to its
                # last acknowledged value or to any unacknowledged value
                # staged for it (write coalescing commits only the final
                # one, but the wider set keeps the check sound).
                reference.stage(
                    request.key,
                    request.value if request.op == OP_PUT else MISSING,
                )

        # -- whole-service power cut + recovery --------------------------
        service.crash()
        recovered = service.recover()
        prefix = f"round {round_no} @ {armed}"
        if supports:
            if not recovered:
                result.violations.append(
                    f"{prefix}: recovery failed on a service whose shards "
                    "all claim crash-consistency support"
                )
                break
            result.recoveries += 1
            # Integrity contract (docs/INTEGRITY.md): a shard that
            # recovers to an unverifiable image — recomputed Merkle root
            # differing from the persisted witness — is a conformance
            # failure even before any logical read-back.
            for worker in service.workers:
                domain = getattr(worker.controller, "integrity", None)
                if domain is not None and domain.recovery_violations:
                    result.violations.extend(
                        f"{prefix}: shard{worker.index}: {v}"
                        for v in domain.recovery_violations
                    )
            if result.violations:
                break
            read_back = functools.partial(_read_back, service)
            check = reference.sweep(keys, read_back)
            if not check.consistent:
                result.violations.extend(f"{prefix}: {v}"
                                         for v in check.violations)
                break
            reference.settle(read_back)
        else:
            if recovered:
                result.violations.append(
                    f"{prefix}: service over a volatile variant claims "
                    "successful recovery"
                )
                break
            # Honest failure is conformant; the service restarts empty.
            service = _build_service(shards, variant, height, batch_max, seed,
                                     integrity, window)
            reference = _new_reference()

    status = service.status()
    result.coalesced_ops = (
        status["totals"]["coalesced_reads"] + status["totals"]["coalesced_writes"]
    )
    result.wall_seconds = time.perf_counter() - started
    return result


def _new_reference() -> TolerantReference[str, Optional[bytes]]:
    return TolerantReference(MISSING, "key {!r}".format)


def _read_back(service: ShardedKVService, key: str) -> Optional[bytes]:
    try:
        return service.get(key)
    except KeyError:
        return MISSING
