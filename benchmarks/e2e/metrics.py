"""Metric assembly: measurements in, named metrics out.

``BENCHMARK.json`` (at the repository root) declares every metric's name,
unit and direction; this module computes the values and adds the clock
each end-to-end metric is read from.  :func:`check_names` keeps the two
in step.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from pathlib import Path
from typing import Dict, List

from tracing import LAYERS, PHASES

BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

#: The clock each end-to-end metric is read from: ``wall`` (host time),
#: ``modeled`` (simulated cycles at the configured frequencies) or
#: ``count`` (a deterministic event count).
CLOCKS = {
    "setup_s": "wall",
    "wall_ops_per_s": "wall",
    "modeled_ops_per_s": "modeled",
    "modeled_p50_us": "modeled",
    "modeled_p99_us": "modeled",
    "nvm_reads_per_op": "count",
    "nvm_writes_per_op": "count",
    "energy_nj_per_op": "modeled",
    "peak_rss_mb": "wall",
}

#: ``mem.*_per_access.<kind>`` traffic classes (``RequestKind`` values).
TRAFFIC_KINDS = ("data_path", "posmap", "persist", "integrity")


def load_benchmark() -> dict:
    with BENCHMARK_JSON.open() as handle:
        return json.load(handle)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile: the ``ceil(fraction * n)``-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_seconds: List[float], reps) -> Dict[str, float]:
    """Every end-to-end metric of one untraced run of several repetitions.

    Modeled samples and counts pool over the repetitions; host throughput
    is the best repetition's, since host noise only ever slows a run.
    """
    samples = [sample for rep in reps for sample in rep.samples_us]
    ops = sum(rep.ops for rep in reps)

    def total(counter: str) -> float:
        return sum(rep.counts.get(counter, 0) for rep in reps)

    return {
        "setup_s": statistics.median(setup_seconds),
        "wall_ops_per_s": max(rep.wall_ops / rep.wall_s for rep in reps),
        "modeled_ops_per_s": sum(rep.capacity_ops for rep in reps)
        / sum(rep.capacity_s for rep in reps),
        "modeled_p50_us": percentile(samples, 0.50),
        "modeled_p99_us": percentile(samples, 0.99),
        "nvm_reads_per_op": total("reads.total") / ops,
        "nvm_writes_per_op": total("writes.total") / ops,
        "energy_nj_per_op": total("energy_pj") / 1000.0 / ops,
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(measurement, tracer, overhead_ratio: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    A layer or mechanism the workload does not exercise reads 0 (for
    example ``cache.*`` outside ``spec-trace``).  Per-access counts are
    per top-level ORAM access: the ``accesses`` counter for engine
    counters, the phase recorders for traced call counts.
    """
    counts, layer, probes = measurement.counts, measurement.layer, measurement.probes
    accesses = counts.get("accesses", 0)
    recorders = measurement.recorders
    recorded = sum(recorder.accesses for recorder in recorders)
    out: Dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_share"] = _ratio(tracer.self_ns.get(name, 0), tracer.wall_ns)
    out["serve.batcher.coalesce_ratio"] = layer.get("coalesce_ratio", 0.0)
    out["serve.batcher.batch_fill"] = layer.get("batch_fill", 0.0)
    out["serve.worker.drain_wait_cycles_per_batch"] = _ratio(
        probes.get("drain_wait_cycles", 0), probes.get("drains", 0))
    out["serve.worker.queue_wait_p99_us"] = layer.get("queue_wait_p99_us", 0.0)
    for op in ("get", "put"):
        out[f"apps.kvstore.oram_accesses_per_{op}"] = _ratio(
            probes.get(f"{op}_accesses", 0), probes.get(f"{op}s", 0))
    out["engine.sched.overlap_ratio"] = _ratio(counts.get("sched_overlapped", 0), accesses)
    out["engine.sched.lookahead_hit_ratio"] = _ratio(
        counts.get("sched_lookahead_hits", 0), accesses)
    for hazard in ("same_address", "segment", "path_overlap"):
        out[f"engine.sched.hazard_{hazard}_per_access"] = _ratio(
            counts.get(f"sched_hazard_{hazard}", 0), accesses)
    out["engine.modeled_cycles_per_access"] = _ratio(
        sum(recorder.access_cycles for recorder in recorders), recorded)
    out["engine.stash_hit_ratio"] = _ratio(counts.get("stash_hits", 0), accesses)
    out["engine.post_evict_stash_mean"] = _ratio(
        counts.get("post_evict_stash.total", 0), counts.get("post_evict_stash.count", 0))
    phase_cycles = {p: sum(r.cycles[p] for r in recorders) for p in PHASES}
    phase_wall = {p: sum(r.wall_ns[p] for r in recorders) for p in PHASES}
    for phase in PHASES:
        out[f"engine.phase.{phase}.cycles_share"] = _ratio(
            phase_cycles[phase], sum(phase_cycles.values()))
        out[f"engine.phase.{phase}.wall_share"] = _ratio(
            phase_wall[phase], sum(phase_wall.values()))
    for name, counter in (("backups", "backups_created"),
                          ("posmap_entries_persisted", "posmap_entries_persisted"),
                          ("ordered_eviction_rounds", "ordered_eviction_rounds")):
        out[f"engine.ps.{name}_per_access"] = _ratio(counts.get(counter, 0), accesses)
    # Each block is two crypto units (header and payload).
    out["crypto.blocks_per_access"] = _ratio(counts.get("crypto_ops", 0) / 2, accesses)
    out["mem.issue_path_calls_per_access"] = _ratio(
        tracer.calls.get("mem:issue_path", 0), recorded)
    for direction in ("reads", "writes"):
        for kind in TRAFFIC_KINDS:
            out[f"mem.{direction}_per_access.{kind}"] = _ratio(
                counts.get(f"{direction}.{kind}", 0), accesses)
    out["mem.flip_rate"] = _ratio(counts.get("bits_flipped", 0), counts.get("bits_written", 0))
    out["integrity.node_writes_per_commit"] = _ratio(
        counts.get("integrity_node_writes", 0), counts.get("integrity_commits", 0))
    out["cache.l1.miss_ratio"] = layer.get("l1_miss_ratio", 0.0)
    out["cache.l2.miss_ratio"] = layer.get("l2_miss_ratio", 0.0)
    out["sim.cpu.ipc"] = layer.get("ipc", 0.0)
    out["sim.cpu.exec_norm"] = layer.get("exec_norm", 0.0)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def check_names(values: Dict[str, float], declared: List[dict]) -> None:
    """Fail loudly if computed and declared metric names differ."""
    computed, names = set(values), {metric["name"] for metric in declared}
    if computed != names:
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: computed but not declared "
            f"{sorted(computed - names)}, declared but not computed "
            f"{sorted(names - computed)}")
