"""Experiment runner: build a system, replay a workload, collect a result."""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.config import SystemConfig
from repro.core.variants import build_variant
from repro.engine.sched import wrap_controller
from repro.sim.results import RunResult
from repro.sim.system import SimulatedSystem
from repro.workloads.spec import spec_workload
from repro.workloads.trace import Trace


def run_experiment(
    variant: str,
    config: SystemConfig,
    trace: Trace,
    warmup_references: int = 0,
) -> RunResult:
    """Replay ``trace`` on a freshly built ``variant`` system.

    ``warmup_references`` records are replayed first and then all timing and
    traffic counters reset, so cold-tree effects do not skew steady-state
    comparisons.

    ``config.integrity`` rides through :func:`build_variant`: the built
    controller carries the crash-consistent integrity domain and its
    digest persistence shows up in the NVM write counts and the
    ``integrity_*`` extra stats (docs/INTEGRITY.md).
    """
    controller = wrap_controller(build_variant(variant, config), config.sched_window)
    system = SimulatedSystem(config, controller)

    if warmup_references > 0:
        warm = Trace(trace.name, trace.ops[:warmup_references])
        system.run(warm)
        controller.memory.reset_timing()
        onchip = getattr(controller, "onchip", None)
        if onchip is not None:
            onchip.reset_timing()
        start_cycles = system.core.cycle
        start_instr = system.core.instructions
        start_misses = system.caches.l2.misses
        body = Trace(trace.name, trace.ops[warmup_references:])
    else:
        start_cycles = 0
        start_instr = 0
        start_misses = 0
        body = trace

    system.run(body)

    reads = controller.memory.traffic.total_reads
    writes = controller.memory.traffic.total_writes
    onchip = getattr(controller, "onchip", None)
    if onchip is not None:
        reads += onchip.traffic.total_reads
        writes += onchip.traffic.total_writes

    extra: Dict[str, float] = {}
    stats = getattr(controller, "stats", None)
    if stats is not None:
        for key in (
            "stash_hits",
            "backups_created",
            "posmap_entries_persisted",
            "background_evictions",
            "integrity_commits",
            "integrity_node_writes",
        ):
            extra[key] = stats.get(key)

    return RunResult(
        variant=variant,
        workload=trace.name,
        cycles=system.core.cycle - start_cycles,
        instructions=system.core.instructions - start_instr,
        llc_misses=system.caches.l2.misses - start_misses,
        nvm_reads=reads,
        nvm_writes=writes,
        extra=extra,
    )


def run_variants(
    variants: Iterable[str],
    config: SystemConfig,
    workloads: Iterable[str],
    references: int = 4000,
    warmup_references: int = 500,
    seed: int = 7,
) -> List[RunResult]:
    """Cartesian product run: every variant on every Table-4 workload."""
    results: List[RunResult] = []
    for workload in workloads:
        trace = spec_workload(
            workload, references=references + warmup_references, seed=seed
        )
        for variant in variants:
            results.append(
                run_experiment(variant, config, trace, warmup_references)
            )
    return results
