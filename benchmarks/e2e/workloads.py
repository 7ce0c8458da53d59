"""The end-to-end benchmark's four workloads, their inputs and oracles.

A run repeats ``setup(rep)`` + ``measure(state)`` for ``rep`` in
``0..REPS-1``.  Every repetition builds a fresh system and draws its own
inputs from ``(seed, rep)``, so the modeled samples of all repetitions
pool into one larger sample, and the host-time measurement can take the
best of several identical-size runs.

The measured work per repetition is ``seconds / REPS`` times the
workload's calibrated rate: a fixed amount, never a function of how fast
the host happens to be, so every modeled and counted result is an exact
function of ``(seed, seconds)`` and both sides of a comparison do
identical work.

Every operation's output is checked against an independent oracle, and
every mismatch or raised error is counted as a failed operation.
"""

from __future__ import annotations

import heapq
import math
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.config import small_config
from repro.engine.registry import build_scheduled
from repro.engine.sched import WindowScheduler
from repro.serve.batcher import OP_GET, OP_PUT
from repro.serve.frontend import ShardedKVService
from repro.util.rng import DeterministicRNG
from repro.workloads.spec import spec_workload

from metrics import percentile
from tracing import attach_phase_recorders

#: Repetitions per run: each is a timed set-up plus a timed measurement.
REPS = 3


@dataclass
class Measurement:
    """What one ``measure()`` call observed (one repetition)."""

    #: Modeled latency samples, microseconds.
    samples_us: List[float] = field(default_factory=list)
    #: Operations completed, and the modeled seconds they took, for
    #: modeled throughput (the closed loop for kv workloads).
    capacity_ops: int = 0
    capacity_s: float = 0.0
    #: The per-op denominator of the traffic metrics.
    ops: int = 0
    #: Counter deltas over the measurement (see :func:`snapshot_counts`).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Operations executed, and the host seconds they took.
    wall_ops: int = 0
    wall_s: float = 0.0
    #: Workload-specific per-layer inputs (all deterministic).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Every stats/traffic snapshot right after the measurement; a traced
    #: repetition must reproduce it exactly.
    fingerprint: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    info: List[str] = field(default_factory=list)
    #: Phase recorders and probe counters, traced repetitions only.
    recorders: list = field(default_factory=list)
    probes: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(message)

    def modeled(self) -> tuple:
        """Everything the traced repetition must reproduce exactly."""
        return (self.samples_us, self.capacity_ops, self.capacity_s, self.ops,
                self.counts, self.layer, self.fingerprint)


def _traced(tracer):
    """The tracer's root span around a measured region (no-op untraced)."""
    return tracer.root() if tracer is not None else nullcontext()


def _bare(controller):
    """The engine behind an optional window scheduler."""
    return controller.controller if isinstance(controller, WindowScheduler) else controller


def _engine_chain(engine) -> list:
    """An engine plus its recursive PosMap ORAM controllers, if any."""
    chain = [engine]
    posmap = getattr(engine, "posmap_oram", None)
    while posmap is not None:
        chain.append(posmap.controller)
        posmap = getattr(posmap.controller, "next_posmap", None)
    return chain


#: Top-level engine counters the per-layer metrics read.
_STAT_COUNTERS = (
    "accesses", "stash_hits", "backups_created", "posmap_entries_persisted",
    "ordered_eviction_rounds", "integrity_commits", "integrity_node_writes",
    "sched_overlapped", "sched_lookahead_hits", "sched_hazard_same_address",
    "sched_hazard_segment", "sched_hazard_path_overlap",
)


def snapshot_counts(engines) -> Dict[str, float]:
    """Additive counters over top-level engines and their memories.

    Built from ``stats.snapshot()`` and ``memory.traffic.snapshot()``;
    crypto operations include the recursive PosMap ORAMs' engines.
    """
    out: Dict[str, float] = {}

    def add(name, value):
        out[name] = out.get(name, 0) + value

    memories = {}
    for engine in engines:
        stats = engine.stats.snapshot()
        for name in _STAT_COUNTERS:
            add(name, stats.get(name, 0))
        count = stats.get("post_evict_stash.count", 0)
        add("post_evict_stash.count", count)
        add("post_evict_stash.total", stats.get("post_evict_stash.mean", 0.0) * count)
        for member in _engine_chain(engine):
            crypto = member.engine.stats.snapshot()
            add("crypto_ops", crypto.get("encrypt_ops", 0) + crypto.get("decrypt_ops", 0))
        memories[id(engine.memory)] = engine.memory
    for memory in memories.values():
        traffic = memory.traffic
        for name, value in traffic.snapshot().items():
            add(name, value)
        add("bits_flipped", traffic.bits_flipped)
        add("bits_written", traffic.bits_written)
        add("energy_pj", memory.energy_pj)
    return out


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def fingerprint(engines) -> Dict[str, object]:
    """Every stats/traffic snapshot of ``engines``."""
    out: Dict[str, object] = {}
    for index, engine in enumerate(engines):
        for depth, member in enumerate(_engine_chain(engine)):
            out[f"{index}.{depth}.stats"] = member.stats.snapshot()
            out[f"{index}.{depth}.crypto"] = member.engine.stats.snapshot()
        out[f"{index}.traffic"] = engine.memory.traffic.snapshot()
        out[f"{index}.energy_pj"] = engine.memory.energy_pj
        out[f"{index}.now"] = engine.now
    return out


def _per_rep(rate: float, seconds: float) -> int:
    """Operations one repetition measures (at least a handful)."""
    return max(8, round(rate * seconds / REPS))


# ----------------------------------------------------------------------
# key-value serving workloads
# ----------------------------------------------------------------------


@dataclass
class _KVState:
    service: ShardedKVService
    shadow: Dict[str, bytes]
    next_op: Callable[[], tuple]
    batches: int = 0


class KVWorkload:
    """``ShardedKVService`` driven inline by a discrete-event load model.

    Time is the shards' modeled clock.  A shard serves one batch at a
    time: when free, it takes up to ``batch_max`` queued requests and
    executes them through ``ShardedKVService.run_batches``; the batch
    costs the cycles the shard's clock advanced (to the drain barrier).
    Shards overlap in modeled time.  Phase A is a closed loop of
    ``clients`` callers (capacity); phase B an open loop at a constant
    ``open_rate`` modeled requests/s, each request timed from its due
    time (latency).
    """

    def __init__(self, name: str, seed: int, seconds: float, *, shards: int,
                 num_keys: int, value_bytes: int, read_fraction: float,
                 zipf_alpha: float, clients: int, requests_per_second: float,
                 closed_share: float, open_rate: float, directory_buckets: int,
                 batch_max: int = 8, window: int = 4, height: int = 8):
        self.name = name
        self.seed = seed
        self.shards = shards
        self.num_keys = num_keys
        self.value_bytes = value_bytes
        self.read_fraction = read_fraction
        self.zipf_alpha = zipf_alpha
        self.clients = clients
        requests = _per_rep(requests_per_second, seconds)
        self.closed_requests = max(4, round(closed_share * requests))
        self.open_requests = requests - self.closed_requests
        self.open_rate = open_rate
        self.directory_buckets = directory_buckets
        self.batch_max = batch_max
        self.window = window
        self.height = height

    def setup(self, rep: int) -> _KVState:
        service = ShardedKVService(
            shards=self.shards, variant="ps", height=self.height,
            directory_buckets=self.directory_buckets, batch_max=self.batch_max,
            seed=self.seed, mode="inline", window=self.window,
        ).start()
        rng = DeterministicRNG(self.seed).substream(f"{self.name}:{rep}")
        keys = [f"key-{index:04d}" for index in range(self.num_keys)]
        shadow = {key: rng.randbytes(self.value_bytes) for key in keys}
        for request in service.execute([(OP_PUT, key, value)
                                        for key, value in shadow.items()]):
            if request.error is not None:
                raise RuntimeError(f"preload of {request.key} failed: {request.error!r}")

        # Popularity rank = key index, the same for every seed: a seeded
        # ranking would move the hottest keys between shards and with
        # them the load balance, swamping every other seed effect.
        def next_op() -> tuple:
            key = keys[rng.zipf_index(self.num_keys, self.zipf_alpha)]
            if rng.random() < self.read_fraction:
                return (OP_GET, key)
            return (OP_PUT, key, rng.randbytes(self.value_bytes))

        return _KVState(service, shadow, next_op)

    def _instrument(self, state: _KVState, result: Measurement) -> None:
        """Traced-run probes: drain waits and ORAM accesses per get/put."""
        probes = result.probes
        for key in ("drain_wait_cycles", "drains", "get_accesses", "gets",
                    "put_accesses", "puts"):
            probes[key] = 0
        for worker in state.service.workers:
            engine = _bare(worker.controller)

            def drain(_inner=worker.drain, _engine=engine):
                before = _engine.now
                finish = _inner()
                probes["drain_wait_cycles"] += finish - before
                probes["drains"] += 1
                return finish

            def counted(op, _inner, _engine=engine):
                def call(*args, **kwargs):
                    before = _engine.stats.get("accesses")
                    try:
                        return _inner(*args, **kwargs)
                    finally:
                        probes[f"{op}_accesses"] += _engine.stats.get("accesses") - before
                        probes[f"{op}s"] += 1
                return call

            worker.drain = drain
            worker.store.get = counted("get", worker.store.get)
            worker.store.put = counted("put", worker.store.put)

    def measure(self, state: _KVState, tracer=None) -> Measurement:
        result = Measurement()
        service = state.service
        engines = [_bare(worker.controller) for worker in service.workers]
        if tracer is not None:
            self._instrument(state, result)
            result.recorders = attach_phase_recorders(tracer, engines)
        core_hz = service.workers[0].config.core.freq_hz
        before = snapshot_counts(engines)
        status_before = dict(service.status()["totals"])
        # Constant-rate arrivals: which shard each request lands on (and so
        # each shard's arrival process) is still random, but the tail is
        # not dominated by the burstiness of one seed's arrival draws.
        gap = core_hz / self.open_rate
        arrivals = [index * gap for index in range(self.open_requests)]
        started = time.perf_counter()
        with _traced(tracer):
            closed = self._serve(state, result, tracer, clients=self.clients,
                                 count=self.closed_requests)
            opened = self._serve(state, result, tracer, arrivals=arrivals)
        result.wall_s = time.perf_counter() - started

        result.wall_ops = result.ops = self.closed_requests + self.open_requests
        result.capacity_ops = closed["completed"]
        result.capacity_s = closed["makespan"] / core_hz
        result.samples_us = [cycles / core_hz * 1e6 for cycles in opened["latencies"]]
        result.counts = delta(snapshot_counts(engines), before)
        totals = delta(service.status()["totals"], status_before)
        waits_us = [cycles / core_hz * 1e6 for cycles in opened["queue_waits"]]
        result.layer.update(
            coalesce_ratio=(totals["coalesced_reads"] + totals["coalesced_writes"])
            / totals["requests"],
            batch_fill=totals["requests"] / totals["batches"],
            queue_wait_p99_us=percentile(waits_us, 0.99),
        )
        result.fingerprint = fingerprint(engines)
        result.fingerprint["service"] = service.status()["totals"]
        offered = self.open_rate / (result.capacity_ops / result.capacity_s)
        result.info.append(
            f"closed loop: {self.clients} clients, {self.closed_requests} requests; "
            f"open loop: constant {self.open_rate:.0f} req/s modeled ({offered:.2f} "
            f"of closed-loop capacity), {self.open_requests} requests; "
            "it runs in modeled time, so the generator is never late")
        return result

    def _serve(self, state: _KVState, result: Measurement, tracer, *,
               clients: int = 0, count: int = 0,
               arrivals: Optional[List[float]] = None) -> Dict[str, object]:
        """One closed-loop (``clients``) or open-loop (``arrivals``) episode."""
        service = state.service
        queues: List[List[tuple]] = [[] for _ in range(service.num_shards)]
        shard_free = [0.0] * service.num_shards
        events: List[tuple] = []
        sequence = 0
        issued = 0
        latencies: List[float] = []
        queue_waits: List[float] = []
        makespan = 0.0

        def push(at, kind, ident):
            nonlocal sequence
            heapq.heappush(events, (at, sequence, kind, ident))
            sequence += 1

        def serve(shard, now):
            nonlocal makespan
            if not queues[shard] or shard_free[shard] > now:
                return
            batch = queues[shard][: service.batch_max]
            del queues[shard][: len(batch)]
            worker = service.workers[shard]
            requests = [request for _, _, request in batch]
            before = worker.controller.now
            if tracer is not None:
                tracer.rid = state.batches
            state.batches += 1
            try:
                service.run_batches(requests)
            except Exception:  # a failed batch is a measured outcome, not a crash
                result.fail(f"batch raised: {traceback.format_exc(limit=3)}", count=0)
            self._check(state, result, requests)
            done = now + (worker.controller.now - before)
            shard_free[shard] = done
            makespan = max(makespan, done)
            for arrival, owner, _request in batch:
                latencies.append(done - arrival)
                queue_waits.append(now - arrival)
                if owner is not None:
                    push(done, "client", owner)
            push(done, "shard", shard)

        if arrivals is None:
            for client in range(clients):
                push(0.0, "client", client)
        else:
            for index, due in enumerate(arrivals):
                push(due, "arrive", index)
        while events:
            now, _, kind, ident = heapq.heappop(events)
            if kind == "shard":
                serve(ident, now)
            elif kind == "arrive" or issued < count:
                issued += 1
                request = service.route([state.next_op()])[0]
                owner = ident if kind == "client" else None
                queues[request.shard].append((now, owner, request))
                serve(request.shard, now)
        return {"completed": len(latencies), "makespan": makespan,
                "latencies": latencies, "queue_waits": queue_waits}

    @staticmethod
    def _check(state: _KVState, result: Measurement, requests) -> None:
        """Replay the batcher's linearization on the shadow dict.

        Gets of keys the batch has not yet written see the pre-batch
        state (loads run before commits); gets after a put in the same
        batch see the staged value (per-key FIFO); the last put wins.
        """
        shadow = state.shadow
        staged: Dict[str, bytes] = {}
        for request in requests:
            result.attempted += 1
            if not request.done or request.error is not None:
                result.fail(f"{request.op} {request.key} failed: {request.error!r}")
            elif request.op == OP_GET:
                expected = staged[request.key] if request.key in staged \
                    else shadow.get(request.key)
                if request.result != expected:
                    result.fail(f"get {request.key} returned a wrong value")
            if request.op == OP_PUT:
                staged[request.key] = request.value
        shadow.update(staged)


# ----------------------------------------------------------------------
# direct ORAM workload
# ----------------------------------------------------------------------


@dataclass
class _ORAMState:
    controller: object
    shadow: List[bytes]
    rng: DeterministicRNG
    #: Address groups touched by the last ``REUSE_GAP`` accesses.
    recent: deque


class ORAMWorkload:
    """One caller issuing back-to-back accesses through the window.

    Addresses are uniform, except that no aligned group of ``GROUP``
    addresses (one recursive PosMap block's worth) is touched again within
    ``REUSE_GAP`` accesses.  A write to a block still in the stash with a
    pending remap loses data in ``DirtyEntryPSPolicy`` today (README.md,
    "Known bug"); a block left in the stash is placed again within an
    access or two, so the gap keeps both data and PosMap blocks off that
    path.  Remove it once the bug is fixed.
    """

    GROUP = 8
    REUSE_GAP = 16

    def __init__(self, name: str, seed: int, seconds: float, *, variant: str,
                 integrity: bool, write_fraction: float, height: int,
                 channels: int, window: int, addresses: int, warmup: int,
                 accesses_per_second: float):
        self.name = name
        self.seed = seed
        self.variant = variant
        self.integrity = integrity
        self.write_fraction = write_fraction
        self.height = height
        self.channels = channels
        self.window = window
        self.addresses = addresses
        self.warmup = warmup
        self.accesses = _per_rep(accesses_per_second, seconds)

    def setup(self, rep: int) -> _ORAMState:
        config = small_config(height=self.height, channels=self.channels,
                              sched_window=self.window, seed=self.seed,
                              integrity=self.integrity)
        controller = build_scheduled(self.variant, config)
        block_bytes = config.oram.block_bytes
        rng = DeterministicRNG(self.seed).substream(f"{self.name}:{rep}")
        state = _ORAMState(controller, [bytes(block_bytes)] * self.addresses, rng,
                           deque(maxlen=self.REUSE_GAP))
        # Every address is written once, so no measured access is a cold
        # miss; striding across groups keeps to the reuse gap.
        groups = self.addresses // self.GROUP
        for index in range(self.addresses):
            address = (index % groups) * self.GROUP + index // groups
            value = rng.randbytes(8)
            controller.write(address, value)
            state.shadow[address] = value + bytes(block_bytes - len(value))
        warm = Measurement()
        for _ in range(self.warmup):
            self._one(state, warm)
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.failures[0]}")
        controller.drain()
        return state

    def _one(self, state: _ORAMState, result: Measurement):
        rng = state.rng
        address = rng.randrange(self.addresses)
        while address // self.GROUP in state.recent:
            address = rng.randrange(self.addresses)
        state.recent.append(address // self.GROUP)
        expected = state.shadow[address]
        result.attempted += 1
        try:
            if rng.random() < self.write_fraction:
                value = rng.randbytes(8)
                access = state.controller.write(address, value)
                state.shadow[address] = value + bytes(len(expected) - len(value))
            else:
                access = state.controller.read(address)
        except Exception:  # a failed access is a measured outcome, not a crash
            result.fail(f"access {address} raised: {traceback.format_exc(limit=3)}")
            return None
        # A read returns the block; a write returns its previous content.
        if access.data != expected:
            result.fail(f"access {address} returned a wrong value")
        return access

    def measure(self, state: _ORAMState, tracer=None) -> Measurement:
        result = Measurement()
        controller = state.controller
        engines = [_bare(controller)]
        if tracer is not None:
            result.recorders = attach_phase_recorders(tracer, engines)
        core_hz = engines[0].config.core.freq_hz
        before = snapshot_counts(engines)
        start_cycle = controller.drain()
        latencies = []
        started = time.perf_counter()
        with _traced(tracer):
            for index in range(self.accesses):
                if tracer is not None:
                    tracer.rid = index
                access = self._one(state, result)
                if access is not None:
                    latencies.append(access.finish_cycle - access.start_cycle)
            end_cycle = controller.drain()
        result.wall_s = time.perf_counter() - started

        result.wall_ops = result.ops = result.capacity_ops = self.accesses
        result.capacity_s = (end_cycle - start_cycle) / core_hz
        result.samples_us = [cycles / core_hz * 1e6 for cycles in latencies]
        result.counts = delta(snapshot_counts(engines), before)
        result.fingerprint = fingerprint(engines)
        result.info.append(
            f"{self.variant}{' + integrity' if self.integrity else ''}: "
            f"{self.accesses} back-to-back accesses per repetition, "
            f"{self.write_fraction:.0%} writes, window {self.window}, "
            f"{self.channels} channels")
        return result


# ----------------------------------------------------------------------
# SPEC-calibrated trace workload (the paper's own metric)
# ----------------------------------------------------------------------


@dataclass
class _Replay:
    """What one ``run_experiment`` call left behind (its system is dropped)."""

    result: object
    #: Demand-read ORAM access latencies (core cycles) after the warm-up.
    latencies: List[int]
    #: ``snapshot_counts`` deltas over the measured body.
    counts: Dict[str, float]
    fingerprint: Dict[str, object]
    core_hz: float
    #: ``(misses, accesses)`` of L1 and L2 over the whole replay.
    l1: tuple
    l2: tuple


class SpecWorkload:
    """``sim.runner.run_experiment`` on SPEC-calibrated traces.

    Each trace replays under ``baseline`` and ``ps``; the two must see
    identical LLC misses (same trace, same caches).  Modeled latency,
    throughput and traffic describe the ``ps`` replays' measured bodies;
    host throughput counts every reference replayed.
    """

    TRACES = ("401.bzip2", "429.mcf", "471.omnetpp")
    VARIANTS = ("baseline", "ps")

    def __init__(self, name: str, seed: int, seconds: float, *, height: int,
                 channels: int, warmup: int, references_per_second: float):
        self.name = name
        self.seed = seed
        self.height = height
        self.channels = channels
        self.warmup = warmup
        self.references = _per_rep(references_per_second, seconds)

    def setup(self, rep: int) -> Dict[str, object]:
        trace_seed = DeterministicRNG(self.seed).substream(f"{self.name}:{rep}").seed
        return {name: spec_workload(name, references=self.warmup + self.references,
                                    seed=trace_seed)
                for name in self.TRACES}

    def _replay(self, variant: str, trace, on_engine: Optional[Callable]) -> _Replay:
        """One ``run_experiment`` call, observed through two seams.

        ``run_experiment`` builds its controller and system internally;
        the module-global factories it calls are swapped for the duration
        so this benchmark can see both.
        """
        from repro.sim import runner

        config = small_config(height=self.height, channels=self.channels,
                              seed=self.seed)
        seen: Dict[str, object] = {}
        latencies: List[int] = []
        build_variant, system_class = runner.build_variant, runner.SimulatedSystem

        def build(name, cfg, **kwargs):
            controller = build_variant(name, cfg, **kwargs)
            inner_access = controller.access

            def access(address, is_write, data=None, start_cycle=None, mutator=None):
                done = inner_access(address, is_write, data=data,
                                    start_cycle=start_cycle, mutator=mutator)
                if not is_write:
                    latencies.append(done.finish_cycle - done.start_cycle)
                return done

            controller.access = access
            memory = controller.memory
            inner_reset = memory.reset_timing

            def reset_timing():
                # run_experiment resets the meters exactly where the
                # warm-up ends: the measured body starts here.
                inner_reset()
                latencies.clear()
                seen["at_body"] = snapshot_counts([controller])

            memory.reset_timing = reset_timing
            seen["controller"] = controller
            if on_engine is not None:
                on_engine(controller)
            return controller

        def system(cfg, controller):
            seen["system"] = system_class(cfg, controller)
            return seen["system"]

        runner.build_variant, runner.SimulatedSystem = build, system
        try:
            run = runner.run_experiment(variant, config, trace,
                                        warmup_references=self.warmup)
        finally:
            runner.build_variant, runner.SimulatedSystem = build_variant, system_class
        controller, caches = seen["controller"], seen["system"].caches
        return _Replay(
            run, latencies, delta(snapshot_counts([controller]), seen["at_body"]),
            fingerprint([controller]), controller.config.core.freq_hz,
            (caches.l1.misses, caches.l1.accesses), (caches.l2.misses, caches.l2.accesses))

    def measure(self, state, tracer=None) -> Measurement:
        result = Measurement()
        on_engine = None
        if tracer is not None:
            def on_engine(engine):
                result.recorders.extend(attach_phase_recorders(tracer, [engine]))
        replays: Dict[str, Dict[str, _Replay]] = {}
        started = time.perf_counter()
        for index, (name, trace) in enumerate(state.items()):
            replays[name] = {}
            for variant in self.VARIANTS:
                result.attempted += len(trace)
                if tracer is not None:
                    tracer.rid = 2 * index + self.VARIANTS.index(variant)
                try:
                    if variant == "ps":
                        # Traced runs trace the ps replays only: every
                        # per-layer metric describes the system under test.
                        with _traced(tracer):
                            replay = self._replay(variant, trace, on_engine)
                    else:
                        replay = self._replay(variant, trace, None)
                except Exception:  # a failed replay is a measured outcome
                    result.fail(f"{variant} on {name} raised: "
                                f"{traceback.format_exc(limit=3)}", count=len(trace))
                    continue
                replays[name][variant] = replay
        result.wall_s = time.perf_counter() - started
        result.wall_ops = result.attempted

        for name, runs in replays.items():
            if len(runs) == 2 and runs["baseline"].result.llc_misses \
                    != runs["ps"].result.llc_misses:
                result.fail(f"{name}: llc_misses differ, baseline "
                            f"{runs['baseline'].result.llc_misses} vs ps "
                            f"{runs['ps'].result.llc_misses}", count=len(state[name]))
        if all(len(runs) == 2 for runs in replays.values()):
            self._summarize(result, replays)
        return result

    def _summarize(self, result: Measurement, replays) -> None:
        ps_runs = [runs["ps"] for runs in replays.values()]
        core_hz = ps_runs[0].core_hz
        cycles = sum(run.result.cycles for run in ps_runs)
        result.ops = result.capacity_ops = self.references * len(ps_runs)
        result.capacity_s = cycles / core_hz
        result.samples_us = [c / core_hz * 1e6 for run in ps_runs for c in run.latencies]
        for run in ps_runs:
            for key, value in run.counts.items():
                result.counts[key] = result.counts.get(key, 0) + value
        ratios = [runs["ps"].result.cycles / runs["baseline"].result.cycles
                  for runs in replays.values()]
        result.layer.update(
            ipc=sum(run.result.instructions for run in ps_runs) / cycles,
            exec_norm=math.exp(sum(map(math.log, ratios)) / len(ratios)),
            l1_miss_ratio=sum(run.l1[0] for run in ps_runs) / sum(run.l1[1] for run in ps_runs),
            l2_miss_ratio=sum(run.l2[0] for run in ps_runs) / sum(run.l2[1] for run in ps_runs),
        )
        result.fingerprint = {
            f"{name}.{variant}": {"run": run.result.to_dict(), **run.fingerprint}
            for name, runs in replays.items() for variant, run in runs.items()
        }
        result.info.append(
            f"{len(ps_runs)} traces x ({self.warmup} warm-up + {self.references} "
            "measured) references per repetition, each under baseline and ps")


#: Workload name -> constructor ``(seed, seconds)``.  Why each exists:
#: BENCHMARK.json and README.md.  The ``*_per_second`` rates size the
#: measured work; they were calibrated on a 2-core Xeon host.
WORKLOADS = {
    # Gets only: puts read their directory bucket and write it back at
    # once, which reaches the known PS-ORAM bug (README.md); restore a 10%
    # put share when it is fixed.
    "kv-read-skew": lambda seed, seconds: KVWorkload(
        "kv-read-skew", seed, seconds, shards=4, num_keys=256, value_bytes=48,
        read_fraction=1.0, zipf_alpha=0.99, clients=16, requests_per_second=650,
        closed_share=0.5, open_rate=400_000.0, directory_buckets=128),
    "oram-write-int": lambda seed, seconds: ORAMWorkload(
        "oram-write-int", seed, seconds, variant="ps", integrity=True,
        write_fraction=0.8, height=10, channels=2, window=4, addresses=512,
        warmup=300, accesses_per_second=550),
    "oram-rcr": lambda seed, seconds: ORAMWorkload(
        "oram-rcr", seed, seconds, variant="rcr-ps", integrity=False,
        write_fraction=0.5, height=10, channels=2, window=4, addresses=512,
        warmup=300, accesses_per_second=280),
    "spec-trace": lambda seed, seconds: SpecWorkload(
        "spec-trace", seed, seconds, height=10, channels=1, warmup=200,
        references_per_second=200),
}
