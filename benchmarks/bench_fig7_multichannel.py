"""Figure 7: performance in multi-channel memory systems.

Paper: PS-ORAM gains 51.26% (2ch) and 53.76% (4ch) over its single-channel
self; Rcr-PS-ORAM gains 46.50% / 55.21%; the gap to the corresponding
baselines stays small (4.94% / 5.32% non-recursive, 2.12% / 5.36%
recursive).  Gains flatten from 2 to 4 channels.

Runnable standalone: ``python benchmarks/bench_fig7_multichannel.py
[--jobs N] [--no-cache] [--window N]``.  ``--window`` runs every variant
behind the memory-level-parallel access window (docs/SCHEDULER.md),
which deepens the multi-channel gains by overlapping disjoint-path
accesses across channels; window 1 (the default) is the serial pipeline
the paper models.
"""

import dataclasses

from repro.bench.harness import (
    BENCH_CONFIG,
    BENCH_REFERENCES,
    BENCH_WARMUP,
    format_table,
    parse_bench_args,
    sweep,
)
from repro.sim.results import geometric_mean, normalize

WORKLOADS = ("429.mcf", "401.bzip2")
CHANNELS = (1, 2, 4)
SYSTEMS = ("baseline", "ps", "rcr-baseline", "rcr-ps")


def _run_all(window: int = 1):
    by_channels = {}
    for channels in CHANNELS:
        config = dataclasses.replace(
            BENCH_CONFIG, channels=channels, sched_window=window
        )
        results = sweep(SYSTEMS, WORKLOADS, config=config,
                        references=BENCH_REFERENCES, warmup=BENCH_WARMUP)
        table = normalize(results, "baseline", "cycles")
        cycles = {}
        for result in results:
            cycles.setdefault(result.variant, []).append(result.cycles)
        by_channels[channels] = {
            "gap": {v: geometric_mean(row.values()) for v, row in table.items()},
            "cycles": {v: sum(c) / len(c) for v, c in cycles.items()},
        }
    return by_channels


def _report(data) -> None:
    rows = []
    for variant in SYSTEMS:
        base = data[1]["cycles"][variant]
        rows.append(
            (
                variant,
                *(base / data[ch]["cycles"][variant] for ch in CHANNELS),
                *(data[ch]["gap"].get(variant, float("nan")) for ch in CHANNELS),
            )
        )
    print()
    print(
        format_table(
            "Figure 7: channel scaling (speedup vs own 1ch; gap vs Baseline)",
            ["Variant", "1ch", "2ch", "4ch", "gap@1", "gap@2", "gap@4"],
            rows,
        )
    )
    ps_speedup_2 = data[1]["cycles"]["ps"] / data[2]["cycles"]["ps"]
    ps_speedup_4 = data[1]["cycles"]["ps"] / data[4]["cycles"]["ps"]
    print(f"PS-ORAM speedups: 2ch {ps_speedup_2 - 1:.1%}, 4ch {ps_speedup_4 - 1:.1%} "
          f"(paper: 51.26% / 53.76%)")


def test_fig7_multichannel(benchmark):
    data = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    _report(data)
    ps_speedup_2 = data[1]["cycles"]["ps"] / data[2]["cycles"]["ps"]
    ps_speedup_4 = data[1]["cycles"]["ps"] / data[4]["cycles"]["ps"]
    # Shapes: real gain at 2 channels, diminishing at 4; PS gap stays small.
    assert ps_speedup_2 > 1.15
    assert ps_speedup_4 > ps_speedup_2
    assert (ps_speedup_4 / ps_speedup_2) < ps_speedup_2
    for channels in CHANNELS:
        assert data[channels]["gap"]["ps"] - 1.0 < 0.15


def main(argv=None) -> int:
    args = parse_bench_args(__doc__, argv)
    if args.window > 1:
        print(f"scheduler window: {args.window}")
    _report(_run_all(args.window))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
