"""Service bench: modeled requests/sec and latency vs shards and clients.

Drives the deterministic closed-loop load generator
(:mod:`repro.serve.loadgen`) over two sweeps:

* **shard sweep** — fixed client count, shards 1/2/4(/8): the scale-out
  story.  N shards are N independent ORAM memories whose batches overlap
  in simulated time, so modeled throughput should scale near-linearly
  until client parallelism or routing imbalance caps it.
* **client sweep** — fixed shard count, growing closed-loop client
  population: queueing behaviour.  Throughput rises until every shard is
  saturated, then p99 latency grows with queue depth.

All primary numbers are *modeled* (shard-clock cycles at the configured
core frequency), like every figure bench in this repo; host wall-clock
throughput rides along as a secondary column.  Progress is journaled to
``BENCH_service.jsonl`` (see ``python -m repro.exec status --journal
BENCH_service.jsonl``).

Every shard runs behind the shared per-shard memory-level-parallel
window (``--window``, default 4, see docs/SCHEDULER.md): batch loads and
commits stream into the shard's :class:`~repro.engine.sched.
WindowScheduler` and the worker drains to a barrier at batch boundaries,
so modeled latencies reflect overlapped intra-shard write-backs on top
of the cross-shard overlap.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
        [--window N] [--output BENCH_service.json]
        [--scaling-floor RATIO]

Writes ``BENCH_service.json`` and exits non-zero if 4-shard modeled
throughput fails to reach ``--scaling-floor`` times the 1-shard number.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.exec.journal import RunJournal
from repro.serve.loadgen import run_load

SHARD_SWEEP = (1, 2, 4, 8)
CLIENT_SWEEP = (1, 4, 8, 16, 32)
QUICK_SHARD_SWEEP = (1, 2, 4)
QUICK_CLIENT_SWEEP = (2, 8)

DEFAULT_OPS = 300
QUICK_OPS = 120
FIXED_CLIENTS = 8
FIXED_SHARDS = 4

#: 4 shards must beat 1 shard by at least this factor (acceptance bar;
#: measured ~3x, the floor only catches a broken scale-out model).
DEFAULT_SCALING_FLOOR = 1.5

#: Per-shard in-flight access window for the recorded JSON (matches
#: bench_hotpath's default; 1 = serial shards, the pre-PR-10 behaviour).
DEFAULT_WINDOW = 4


def run_sweeps(
    quick: bool, variant: str, seed: int, window: int = DEFAULT_WINDOW,
    journal: Optional[RunJournal] = None,
) -> Dict:
    shard_points = QUICK_SHARD_SWEEP if quick else SHARD_SWEEP
    client_points = QUICK_CLIENT_SWEEP if quick else CLIENT_SWEEP
    total_ops = QUICK_OPS if quick else DEFAULT_OPS

    def point(**kwargs) -> Dict:
        started = time.perf_counter()
        row = run_load(variant=variant, total_ops=total_ops, seed=seed,
                       window=window, **kwargs).to_dict()
        if journal is not None:
            journal.emit(
                "point_finished",
                variant=variant,
                workload=f"{row['shards']} shards x {row['clients']} clients",
                worker=0,
                wall_s=round(time.perf_counter() - started, 3),
            )
        return row

    shard_rows: List[Dict] = []
    for shards in shard_points:
        row = point(shards=shards, clients=FIXED_CLIENTS)
        shard_rows.append(row)
        print(f"shards={shards:2d} clients={FIXED_CLIENTS:2d}  "
              f"{row['modeled_rps']:>10.1f} req/s  "
              f"p50 {row['modeled_p50_us']:7.2f}us  "
              f"p99 {row['modeled_p99_us']:7.2f}us")

    client_rows: List[Dict] = []
    for clients in client_points:
        row = point(shards=FIXED_SHARDS, clients=clients)
        client_rows.append(row)
        print(f"shards={FIXED_SHARDS:2d} clients={clients:2d}  "
              f"{row['modeled_rps']:>10.1f} req/s  "
              f"p50 {row['modeled_p50_us']:7.2f}us  "
              f"p99 {row['modeled_p99_us']:7.2f}us")

    by_shards = {row["shards"]: row["modeled_rps"] for row in shard_rows}
    scaling_4v1 = (
        round(by_shards[4] / by_shards[1], 2)
        if by_shards.get(1) and by_shards.get(4)
        else None
    )
    return {
        "bench": "service",
        "quick": quick,
        "variant": variant,
        "seed": seed,
        "window": window,
        "total_ops": total_ops,
        "fixed_clients": FIXED_CLIENTS,
        "fixed_shards": FIXED_SHARDS,
        "shard_sweep": shard_rows,
        "client_sweep": client_rows,
        "scaling_4_shards_vs_1": scaling_4v1,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--quick", action="store_true",
                        help="short sweeps for CI smoke")
    parser.add_argument("--output", default="BENCH_service.json", metavar="PATH",
                        help="result JSON path (default: %(default)s)")
    parser.add_argument("--journal", default="BENCH_service.jsonl", metavar="PATH",
                        help="JSONL progress journal (default: %(default)s)")
    parser.add_argument("--variant", default="ps",
                        help="engine variant for every shard (default: ps)")
    parser.add_argument("--seed", type=int, default=7,
                        help="load-generator seed (default: %(default)s)")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        metavar="N",
                        help="per-shard in-flight access window depth; "
                             "1 = serial shards (default: %(default)s)")
    parser.add_argument("--scaling-floor", type=float,
                        default=DEFAULT_SCALING_FLOOR, metavar="RATIO",
                        help="fail if 4-shard/1-shard modeled throughput "
                             "falls below RATIO (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.window < 1:
        parser.error(f"--window must be >= 1, got {args.window}")

    with RunJournal(args.journal) as journal:
        points = (len(QUICK_SHARD_SWEEP) + len(QUICK_CLIENT_SWEEP)
                  if args.quick else len(SHARD_SWEEP) + len(CLIENT_SWEEP))
        journal.emit("sweep_started", points=points, jobs=1)
        started = time.perf_counter()
        payload = run_sweeps(args.quick, args.variant, args.seed,
                             args.window, journal)
        journal.emit(
            "sweep_finished",
            finished=points, failed=0,
            wall_s=round(time.perf_counter() - started, 3),
        )

    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    scaling = payload["scaling_4_shards_vs_1"]
    if scaling is not None:
        print(f"4-shard vs 1-shard modeled throughput: {scaling:.2f}x")
        if scaling < args.scaling_floor:
            print(
                f"FAIL: scaling {scaling:.2f}x below floor "
                f"{args.scaling_floor:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
