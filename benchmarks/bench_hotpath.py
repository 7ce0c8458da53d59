"""Hot-path microbenchmark: raw controller accesses per second.

Unlike the figure benches (trace through core + caches + controller),
this harness drives the variant controllers *directly* with a synthetic
half-read/half-write address stream, so the number it reports is the
throughput of the per-access simulation loop itself — the code the
profile-guided optimizations target (crypto keystream/XOR, tree path
I/O, eviction planning, stats).

The controllers run behind the memory-level-parallel access window
(``--window``, see docs/SCHEDULER.md) on a multi-channel memory
(``--channels``).  The window changes no logical state and adds almost
no Python work per access, so wall-clock accesses/sec is essentially
window-independent; what the window does change is the *modeled* cycle
count, which the JSON records per variant (``modeled_cycles_per_access``)
so CI can assert that the windowed schedule is never slower than the
serial one on identical traffic.  The JSON also records the NVM lines
read and written per access: a window deeper than 1 serves the top two
tree levels from the on-chip bucket buffer, so it reads 2·Z lines less
per path fetch of each tree and writes exactly what the serial run
writes.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick]
        [--window N] [--channels N]
        [--output BENCH_hotpath.json] [--floor ACC_PER_SEC]

Writes ``BENCH_hotpath.json`` with the measured accesses/sec per variant
next to the pre-optimization and PR 2 reference numbers, and exits
non-zero if the PS-ORAM variant drops below ``--floor`` (a deliberately
generous bound that catches order-of-magnitude regressions, not machine
noise).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Optional, Sequence

from repro.config import small_config
from repro.util.rng import DeterministicRNG

#: Accesses/sec measured on the pre-optimization tree (commit f36398e)
#: with the default settings below, for the speedup column in the JSON.
PRE_OPT_REFERENCE = {"baseline": 166.7, "ps": 181.0, "rcr-ps": 94.1}

#: Accesses/sec recorded by PR 2 after its profile-guided optimization
#: pass — the post-opt baseline this bench's drift is measured against.
#: (The previously-committed BENCH_hotpath.json had silently become the
#: de-facto reference; these are those numbers, pinned explicitly.)
PR2_REFERENCE = {"baseline": 696.3, "ps": 635.3, "rcr-ps": 278.4}

BENCH_HEIGHT = 10
ADDRESS_SPACE = 512
WARMUP_ACCESSES = 100
MEASURED_ACCESSES = 400
QUICK_WARMUP = 30
QUICK_MEASURED = 120

#: Defaults for the recorded JSON: window-4 scheduling on a 2-channel
#: memory (the configuration the ISSUE acceptance gate names).
DEFAULT_WINDOW = 4
DEFAULT_CHANNELS = 2

#: Generous default floor for the CI perf-smoke check (measured ~670
#: acc/s on a laptop-class core; CI machines are slower, and the check
#: only needs to catch order-of-magnitude regressions).
DEFAULT_FLOOR = 60.0


def bench_variant(
    name: str,
    warmup: int,
    measured: int,
    height: int = BENCH_HEIGHT,
    window: int = DEFAULT_WINDOW,
    channels: int = DEFAULT_CHANNELS,
) -> Dict[str, float]:
    """Time ``measured`` accesses of one variant after ``warmup``."""
    from repro.engine.registry import build_scheduled

    config = small_config(height=height, channels=channels, sched_window=window)
    controller = build_scheduled(name, config)
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
    cycles_before = controller.now
    traffic = controller.memory.traffic
    reads_before = traffic.total_reads
    writes_before = traffic.total_writes
    start = time.perf_counter()
    for _ in range(measured):
        one()
    elapsed = time.perf_counter() - start
    if drain is not None:
        drain()
    modeled_cycles = controller.now - cycles_before
    per_sec = measured / elapsed
    pre_opt = PRE_OPT_REFERENCE.get(name)
    pr2 = PR2_REFERENCE.get(name)
    return {
        "accesses": measured,
        "seconds": round(elapsed, 4),
        "accesses_per_sec": round(per_sec, 1),
        "modeled_cycles": modeled_cycles,
        "modeled_cycles_per_access": round(modeled_cycles / measured, 1),
        "nvm_reads_per_access": round((traffic.total_reads - reads_before) / measured, 4),
        "nvm_writes_per_access": round((traffic.total_writes - writes_before) / measured, 4),
        "pre_opt_accesses_per_sec": pre_opt,
        "pr2_accesses_per_sec": pr2,
        "speedup_vs_pre_opt": (
            round(per_sec / pre_opt, 2) if pre_opt else None
        ),
        "speedup_vs_pr2": (
            round(per_sec / pr2, 2) if pr2 else None
        ),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--quick", action="store_true",
                        help="short run for CI smoke (fewer accesses)")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW, metavar="N",
                        help="in-flight access window depth; 1 = serial "
                             "pipeline (default: %(default)s)")
    parser.add_argument("--channels", type=int, default=DEFAULT_CHANNELS,
                        metavar="N",
                        help="memory channels (default: %(default)s)")
    parser.add_argument("--output", default="BENCH_hotpath.json", metavar="PATH",
                        help="result JSON path (default: %(default)s)")
    parser.add_argument("--floor", type=float, default=DEFAULT_FLOOR, metavar="N",
                        help="fail if PS-ORAM accesses/sec drops below N "
                             "(default: %(default)s)")
    parser.add_argument("--variants", nargs="+", metavar="NAME",
                        default=["baseline", "ps", "rcr-ps"],
                        choices=["baseline", "ps", "rcr-ps"],
                        help="variants to run (default: all)")
    args = parser.parse_args(argv)
    if args.window < 1:
        parser.error(f"--window must be >= 1, got {args.window}")
    if args.channels < 1:
        parser.error(f"--channels must be >= 1, got {args.channels}")

    warmup = QUICK_WARMUP if args.quick else WARMUP_ACCESSES
    measured = QUICK_MEASURED if args.quick else MEASURED_ACCESSES

    results = {}
    for name in args.variants:
        row = bench_variant(
            name, warmup, measured, window=args.window, channels=args.channels
        )
        if args.window > 1:
            # Identical trace on the serial pipeline: the modeled speedup
            # the window buys on this workload.
            serial = bench_variant(
                name, warmup, measured, window=1, channels=args.channels
            )
            row["modeled_serial_cycles"] = serial["modeled_cycles"]
            row["modeled_speedup_vs_serial"] = round(
                serial["modeled_cycles"] / row["modeled_cycles"], 4
            )
        else:
            row["modeled_serial_cycles"] = row["modeled_cycles"]
            row["modeled_speedup_vs_serial"] = 1.0
        results[name] = row
        speedup = row["speedup_vs_pr2"]
        extra = f"  ({speedup:.2f}x vs PR2)" if speedup else ""
        print(
            f"{name:10s} {row['accesses_per_sec']:8.1f} acc/s  "
            f"{row['modeled_cycles_per_access']:10.1f} cyc/acc  "
            f"{row['modeled_speedup_vs_serial']:.2f}x vs serial{extra}"
        )

    payload = {
        "bench": "hotpath",
        "quick": args.quick,
        "height": BENCH_HEIGHT,
        "address_space": ADDRESS_SPACE,
        "warmup_accesses": warmup,
        "measured_accesses": measured,
        "window": args.window,
        "channels": args.channels,
        "pre_opt_reference": PRE_OPT_REFERENCE,
        "pr2_reference": PR2_REFERENCE,
        "results": results,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    ps = results.get("ps")
    if ps is not None and ps["accesses_per_sec"] < args.floor:
        print(
            f"FAIL: ps throughput {ps['accesses_per_sec']:.1f} acc/s "
            f"below floor {args.floor:.1f}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
