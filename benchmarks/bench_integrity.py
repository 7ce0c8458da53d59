"""Integrity-propagation microbenchmark: eager vs lazy-batched vs none.

Drives the ps controller directly with the hot-path synthetic stream
under three integrity modes:

* ``none``  — no integrity domain: the baseline cost;
* ``eager`` — the non-batched strawman: every dirty residual-tree leaf
  writes the node line of each node on its path at persist-commit,
  shared lines re-written once per leaf (what a per-line integrity
  engine would issue);
* ``lazy``  — the Freij-style batched discipline the PS variants declare:
  one propagation per commit, then the root witness alone; recovery
  rebuilds the interior digests from the image, so no node line is
  written (docs/INTEGRITY.md).

Both integrity modes protect the ORAM tree with its own bucket Merkle
tree, whose digests ride in the path lines and cost no timed line, and
the small residual region (flat PosMap, scratch lines) with the
line-packed arity-4 tree.  The modes differ on the residual tree only,
so the *modeled* cycles/access gap between them is purely the node-line
traffic the lazy discipline does not write — a deterministic number the
JSON pins (lazy must beat eager; the bench exits non-zero otherwise).
Lazy writes exactly one integrity line per access here (the witness),
against 10.92 when it also persisted the residual tree's group lines and
53.7 with one line-packed tree over the whole image.  Wall-clock
accesses/sec is also recorded for the Python-overhead view.

Runs at window 1 (serial pipeline) and window 4 (memory-level-parallel
scheduler) per mode, mirroring the hot-path bench's configurations.

Usage::

    PYTHONPATH=src python benchmarks/bench_integrity.py [--quick]
        [--windows N [N ...]] [--output BENCH_integrity.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Optional, Sequence

from repro.config import small_config
from repro.util.rng import DeterministicRNG

BENCH_HEIGHT = 10
ADDRESS_SPACE = 512
WARMUP_ACCESSES = 60
MEASURED_ACCESSES = 240
QUICK_WARMUP = 20
QUICK_MEASURED = 80

MODES = ("none", "eager", "lazy")
DEFAULT_WINDOWS = (1, 4)


def bench_mode(
    mode: str,
    window: int,
    warmup: int,
    measured: int,
    height: int = BENCH_HEIGHT,
) -> Dict[str, float]:
    """Time ``measured`` ps accesses under one integrity mode."""
    from repro.engine.registry import build_variant
    from repro.engine.sched import wrap_controller
    from repro.integrity import enable_integrity

    config = small_config(height=height, sched_window=window)
    controller = build_variant("ps", config)
    if mode != "none":
        enable_integrity(controller, discipline=mode)
    if window > 1:
        controller = wrap_controller(controller, window)
    rng = DeterministicRNG(99)

    def one() -> None:
        addr = rng.randrange(ADDRESS_SPACE)
        if rng.randrange(2):
            controller.write(addr, addr.to_bytes(4, "little"))
        else:
            controller.read(addr)

    for _ in range(warmup):
        one()
    drain = getattr(controller, "drain", None)
    if drain is not None:
        drain()
    stats = controller.stats
    node_writes_before = stats.get("integrity_node_writes")
    cycles_before = controller.now
    start = time.perf_counter()
    for _ in range(measured):
        one()
    elapsed = time.perf_counter() - start
    if drain is not None:
        drain()
    modeled_cycles = controller.now - cycles_before
    node_writes = stats.get("integrity_node_writes") - node_writes_before
    return {
        "accesses": measured,
        "seconds": round(elapsed, 4),
        "accesses_per_sec": round(measured / elapsed, 1),
        "modeled_cycles": modeled_cycles,
        "modeled_cycles_per_access": round(modeled_cycles / measured, 1),
        "integrity_node_writes": node_writes,
        "node_writes_per_access": round(node_writes / measured, 2),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--quick", action="store_true",
                        help="short run for CI smoke (fewer accesses)")
    parser.add_argument("--windows", type=int, nargs="+", metavar="N",
                        default=list(DEFAULT_WINDOWS),
                        help="window depths to run (default: 1 4)")
    parser.add_argument("--output", default="BENCH_integrity.json",
                        metavar="PATH",
                        help="result JSON path (default: %(default)s)")
    args = parser.parse_args(argv)
    if any(w < 1 for w in args.windows):
        parser.error(f"--windows entries must be >= 1, got {args.windows}")

    warmup = QUICK_WARMUP if args.quick else WARMUP_ACCESSES
    measured = QUICK_MEASURED if args.quick else MEASURED_ACCESSES

    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for window in args.windows:
        per_window: Dict[str, Dict[str, float]] = {}
        for mode in MODES:
            per_window[mode] = bench_mode(mode, window, warmup, measured)
            row = per_window[mode]
            print(
                f"w{window} {mode:6s} {row['accesses_per_sec']:8.1f} acc/s  "
                f"{row['modeled_cycles_per_access']:10.1f} cyc/acc  "
                f"{row['node_writes_per_access']:6.2f} node-wr/acc"
            )
        none_cyc = per_window["none"]["modeled_cycles_per_access"]
        for mode in ("eager", "lazy"):
            per_window[mode]["modeled_overhead_vs_none"] = round(
                per_window[mode]["modeled_cycles_per_access"] / none_cyc, 3
            )
        results[f"window{window}"] = per_window

    payload = {
        "bench": "integrity",
        "variant": "ps",
        "quick": args.quick,
        "height": BENCH_HEIGHT,
        "address_space": ADDRESS_SPACE,
        "warmup_accesses": warmup,
        "measured_accesses": measured,
        "windows": args.windows,
        "results": results,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    # The acceptance gate: batched propagation must be strictly cheaper
    # than the eager strawman on the deterministic modeled metric.
    failed = False
    for window_key, per_window in results.items():
        lazy = per_window["lazy"]["modeled_cycles"]
        eager = per_window["eager"]["modeled_cycles"]
        if lazy >= eager:
            print(
                f"FAIL: {window_key} lazy modeled cycles {lazy} not below "
                f"eager {eager}",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
