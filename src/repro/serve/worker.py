"""Per-shard worker: one crash-consistent engine behind a batch executor.

Each worker owns a full vertical slice — a :class:`VariantSpec`-assembled
controller (any crash-consistent variant from the PR 4 registry) with an
:class:`~repro.apps.kvstore.ObliviousKVStore` over it — and executes
:class:`~repro.serve.batcher.BatchPlan`\\ s against it.  Workers share
nothing: no locks, no cross-shard state, so N workers model N independent
ORAM memories proceeding concurrently (the Palermo parallelism argument
at the serving layer).  That concurrency lives in modeled time: the
front end calls :meth:`execute_batch` on its own thread, shard after
shard, and the load generator overlaps the shards' cycle costs.

The worker is the service's crash surface: a :class:`SimulatedCrash`
raised by the controller mid-batch unwinds the batch, fails its
unacknowledged requests with :class:`ServiceCrashedError`, and leaves the
worker dead until :meth:`recover`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.kvstore import ObliviousKVStore
from repro.config import small_config
from repro.core.recovery import RecoveryReport, crash_and_recover
from repro.engine.registry import build_scheduled
from repro.errors import ReproError, ServiceCrashedError, SimulatedCrash
from repro.serve.batcher import BatchPlan, Request, plan_batch
from repro.util.rng import DeterministicRNG


class ShardWorker:
    """One shard: engine + store + batch executor (see module docstring)."""

    def __init__(
        self,
        index: int,
        variant: str = "ps",
        height: int = 8,
        directory_buckets: int = 32,
        seed: int = 1,
        key: bytes = b"repro-psoram-key",
        pad_batches: bool = False,
        window: int = 1,
        integrity: bool = False,
    ):
        self.index = index
        self.variant = variant
        #: When set, the shard's engine carries the crash-consistent
        #: integrity domain (docs/INTEGRITY.md): digest lines persist as
        #: first-class NVM traffic and recovery additionally requires the
        #: recomputed Merkle root to match the persisted witness.
        self.integrity = integrity
        #: In-flight access window depth for the memory-level-parallel
        #: scheduler (1 = serial).  The batch planner is the natural
        #: feeder: a planned batch's loads/commits stream into the window
        #: back-to-back, so disjoint-path requests overlap across the
        #: shard's NVM channels.
        self.window = window
        #: When set, every batch issues at least one ORAM access per
        #: request: coalescing savings are re-spent as dummy accesses, so
        #: a bus observer cannot learn from the access *count* that a
        #: batch contained duplicate or read-your-writes keys.  Off by
        #: default (the count leak is bounded by the batch window and
        #: most deployments prefer the throughput).
        self.pad_batches = pad_batches
        #: Deterministic per-shard config seed: independent substreams so
        #: shard RNGs never correlate, stable across restarts.
        self.config_seed = DeterministicRNG(seed).substream(f"shard-{index}").seed
        self.config = small_config(
            height=height, seed=self.config_seed, sched_window=window,
            integrity=integrity,
        )
        controller = build_scheduled(variant, self.config, key=key)
        self.store = ObliviousKVStore(
            controller, directory_buckets=directory_buckets
        )
        self.crashed = False
        self.stats: Dict[str, int] = {
            "requests": 0,
            "batches": 0,
            "store_ops": 0,
            "coalesced_reads": 0,
            "coalesced_writes": 0,
            "busy_cycles": 0,
            "pad_accesses": 0,
            "crashes": 0,
            "recoveries": 0,
        }

    @property
    def controller(self):
        return self.store.controller

    def crash_points(self) -> List[str]:
        """The underlying controller's injectable labels."""
        return list(self.controller.crash_points())

    def drain(self) -> int:
        """Window barrier: wait out every in-flight write-back.

        With ``window > 1`` the shard's accesses stream into the shared
        :class:`~repro.engine.sched.WindowScheduler`; batch boundaries,
        snapshots and shutdown drain the window so reported finish cycles
        (and anything that reads ``controller.now``) reflect fully
        retired write-backs.  A serial (unwrapped) controller has no
        window — its clock already is the barrier.
        """
        drain = getattr(self.controller, "drain", None)
        if drain is not None:
            return drain()
        return self.controller.now

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------

    def execute_batch(self, requests: List[Request]) -> BatchPlan:
        """Plan and execute one batch; resolves every request.

        On a simulated crash the batch's unresolved requests fail with
        :class:`ServiceCrashedError` and the crash re-raises so the
        owning service can power-cycle every shard.
        """
        if self.crashed:
            error = ServiceCrashedError(
                f"shard {self.index} is down (crash not yet recovered)"
            )
            for request in requests:
                request.fail(error)
            raise error
        plan = plan_batch(requests)
        arrival = self.controller.now
        loaded: Dict[str, Optional[bytes]] = {}
        commit_errors: Dict[str, ReproError] = {}
        try:
            for load_key in plan.loads:
                try:
                    loaded[load_key] = self.store.get(load_key)
                except KeyError:
                    loaded[load_key] = None
            for commit_key, value in plan.commits:
                try:
                    if value is None:
                        try:
                            self.store.delete(commit_key)
                        except KeyError:
                            pass  # service deletes are idempotent
                    else:
                        self.store.put(commit_key, value)
                except SimulatedCrash:
                    raise
                except ReproError as error:  # e.g. StoreFullError
                    commit_errors[commit_key] = error
            if self.pad_batches:
                # Re-spend coalescing savings as dummy accesses of the
                # store header block so the batch's ORAM access count
                # reveals nothing about intra-batch key duplication.
                for _ in range(max(0, len(requests) - plan.store_ops)):
                    self.controller.read(0)
                    self.stats["pad_accesses"] += 1
        except SimulatedCrash:
            self.crashed = True
            self.stats["crashes"] += 1
            error = ServiceCrashedError(
                f"shard {self.index} crashed mid-batch; ops never acknowledged"
            )
            for request in requests:
                if not request.done:
                    request.fail(error)
            raise

        # Batch boundary = window barrier: acknowledgement cycles must
        # cover the write-backs still in flight in the shard's scheduler.
        finish = self.drain()
        self._resolve(requests, plan, loaded, commit_errors, arrival, finish)
        self.stats["requests"] += len(requests)
        self.stats["batches"] += 1
        self.stats["store_ops"] += plan.store_ops
        self.stats["coalesced_reads"] += plan.coalesced_reads
        self.stats["coalesced_writes"] += plan.coalesced_writes
        self.stats["busy_cycles"] += finish - arrival
        return plan

    def _resolve(self, requests, plan, loaded, commit_errors, arrival, finish):
        """Acknowledge every request per its planned outcome.

        Acknowledgement happens only here — after every store mutation of
        the batch returned, i.e. after each is individually durable — so
        a crash anywhere earlier leaves the whole batch unacknowledged.
        """
        for request, outcome in zip(requests, plan.outcomes):
            request.arrival_cycle = arrival
            request.finish_cycle = finish
            kind = outcome[0]
            if kind == "load":
                value = loaded[outcome[1]]
                if value is None:
                    request.fail(KeyError(request.key))
                else:
                    request.resolve(value)
            elif kind == "value":
                request.resolve(outcome[1])
            elif kind == "missing":
                request.fail(KeyError(request.key))
            else:  # "ack"
                error = commit_errors.get(request.key)
                if error is not None:
                    request.fail(error)
                else:
                    request.resolve(None)

    # ------------------------------------------------------------------
    # crash plumbing
    # ------------------------------------------------------------------

    def power_fail(self) -> None:
        """Cut power to this shard: volatile state gone, ADR drains WPQs."""
        if not self.crashed:
            self.stats["crashes"] += 1
        self.crashed = True
        self.store.crash()

    def recover(self) -> bool:
        """Rebuild engine + store state from the persistent image.

        One recovery path for the whole worker: this is
        :meth:`power_cycle` minus the report.  Routing through the power
        cycle means the ADR drain of committed WPQ rounds
        (``controller.crash()``) always precedes the policy recovery —
        a bare ``store.recover()`` without a preceding power cut used to
        discard committed rounds and with them acknowledged data.
        Returns False — and leaves the worker down — if the variant
        cannot recover.
        """
        return self.power_cycle().recovered

    def power_cycle(self) -> RecoveryReport:
        """Cut power and recover in one step — the single recovery path.

        ``crash_and_recover`` runs the controller-side power cycle (ADR
        drain + policy recovery); :meth:`~repro.apps.kvstore.
        ObliviousKVStore.reopen` then rebuilds the store's volatile
        allocator against the recovered directory, reclaiming chunks
        orphaned by an interrupted batch.  ``reopen`` (not ``settle``)
        also makes power-cycling a closed store legal — recovery
        legitimately reopens one.
        """
        if not self.crashed:
            self.stats["crashes"] += 1
        self.crashed = True
        report = crash_and_recover(self.controller)
        if report.recovered:
            self.store.reopen()
            self.crashed = False
            self.stats["recoveries"] += 1
        return report

    def close(self) -> int:
        """Settle and close the shard's store; returns reclaimed blocks."""
        self.drain()
        reclaimed = self.store.close()
        # The settle scan's directory reads re-entered the window; leave
        # the shard fully quiesced.
        self.drain()
        return reclaimed
