"""One-shot evaluation report: regenerate all paper tables/figures as text.

``python -m repro`` (or ``python -m repro.report``) runs the same pipelines
as the benchmark suite and prints every table and figure analogue with the
paper's published values alongside — the script behind EXPERIMENTS.md.

Options::

    python -m repro --quick          # smaller sweeps (default)
    python -m repro --full           # all 14 workloads, longer traces
    python -m repro --only fig5a     # one experiment id
    python -m repro --jobs 4         # parallel sweep points (repro.exec)
    python -m repro --no-cache       # ignore the on-disk result cache
    python -m repro --profile 30     # cProfile the run, print top 30
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Dict, List, Sequence

from repro.bench.harness import (
    BENCH_CONFIG,
    BENCH_WORKLOADS,
    FULL_WORKLOADS,
    format_table,
    sweep,
)
from repro.config import WPQConfig
from repro.core.variants import NON_RECURSIVE_VARIANTS
from repro.energy.model import EADR_CACHE, EADR_ORAM, PS_ORAM, PS_ORAM_SMALL
from repro.sim.results import geometric_mean, normalize
from repro.util.units import format_energy, format_time

#: Paper values used in the side-by-side columns (ISCA'22, Section 5).
PAPER = {
    "fullnvm": 1.9054,
    "fullnvm-stt": 1.3769,
    "naive-ps": 1.7392,
    "ps": 1.0429,
    "rcr-baseline": 1.6893,
    "rcr-ps": 1.7510,
    "writes.fullnvm": 2.1163,
    "writes.naive-ps": 2.009,
    "writes.ps": 1.0484,
}


def _norm(results, metric="cycles") -> Dict[str, float]:
    table = normalize(results, "baseline", metric)
    return {variant: geometric_mean(row.values()) for variant, row in table.items()}


def report_table2(args) -> None:
    print(format_table(
        "Table 2 — draining energy/time at crash",
        ["System", "Energy", "Time", "vs PS-ORAM(96)"],
        [
            ("eADR-cache", format_energy(EADR_CACHE.energy_pj),
             format_time(EADR_CACHE.time_ns),
             f"{EADR_CACHE.energy_pj / PS_ORAM.energy_pj:,.0f}x"),
            ("eADR-ORAM", format_energy(EADR_ORAM.energy_pj),
             format_time(EADR_ORAM.time_ns),
             f"{EADR_ORAM.energy_pj / PS_ORAM.energy_pj:,.0f}x"),
            ("PS-ORAM (96)", format_energy(PS_ORAM.energy_pj),
             format_time(PS_ORAM.time_ns), "1x"),
            ("PS-ORAM (4)", format_energy(PS_ORAM_SMALL.energy_pj),
             format_time(PS_ORAM_SMALL.time_ns), ""),
        ],
    ))


def report_table4(args) -> None:
    from repro.workloads.spec import SPEC_WORKLOADS, measure_llc_misses, spec_workload

    rows = []
    for name in args.workloads:
        trace = spec_workload(name, references=4000)
        mpki = 1000.0 * measure_llc_misses(trace) / trace.instructions
        rows.append((name, SPEC_WORKLOADS[name].mpki, mpki))
    print(format_table("Table 4 — workload MPKIs", ["Workload", "Paper", "Measured"], rows))


def report_fig5a(args) -> None:
    results = sweep(NON_RECURSIVE_VARIANTS, args.workloads)
    norm = _norm(results)
    rows = [
        (variant, PAPER.get(variant, 1.0), norm.get(variant, float("nan")))
        for variant in NON_RECURSIVE_VARIANTS
    ]
    print(format_table(
        "Figure 5(a) — normalized execution time (geomean)",
        ["Variant", "Paper", "Measured"], rows,
    ))


def report_fig5b(args) -> None:
    results = sweep(("baseline", "rcr-baseline", "rcr-ps"), args.workloads)
    norm = _norm(results)
    rows = [
        ("rcr-baseline", PAPER["rcr-baseline"], norm["rcr-baseline"]),
        ("rcr-ps", PAPER["rcr-ps"], norm["rcr-ps"]),
        ("rcr-ps / rcr-baseline", 1.0365, norm["rcr-ps"] / norm["rcr-baseline"]),
    ]
    print(format_table(
        "Figure 5(b) — recursive designs (normalized, geomean)",
        ["Variant", "Paper", "Measured"], rows,
    ))


def report_fig6(args) -> None:
    variants = ("baseline", "fullnvm", "naive-ps", "ps", "rcr-baseline", "rcr-ps")
    results = sweep(variants, args.workloads)
    reads = _norm(results, "nvm_reads")
    writes = _norm(results, "nvm_writes")
    rows = [
        (variant, reads.get(variant, float("nan")),
         PAPER.get(f"writes.{variant}", float("nan")),
         writes.get(variant, float("nan")))
        for variant in variants
    ]
    print(format_table(
        "Figure 6 — NVM traffic normalized to Baseline",
        ["Variant", "Reads", "Writes (paper)", "Writes (measured)"], rows,
    ))


def report_fig7(args) -> None:
    rows = []
    for channels in (1, 2, 4):
        config = dataclasses.replace(BENCH_CONFIG, channels=channels)
        results = sweep(("baseline", "ps"), args.workloads[:2], config=config)
        cycles = {}
        for result in results:
            cycles.setdefault(result.variant, []).append(result.cycles)
        rows.append((channels,
                     sum(cycles["ps"]) / len(cycles["ps"]),
                     _norm(results)["ps"]))
    base = rows[0][1]
    printable = [
        (ch, f"+{base / cyc - 1:.1%}", gap) for ch, cyc, gap in rows
    ]
    print(format_table(
        "Figure 7 — PS-ORAM channel scaling (paper: +51.3% @2ch, +53.8% @4ch)",
        ["Channels", "Speedup vs 1ch", "Gap vs Baseline"], printable,
    ))


def report_wpq(args) -> None:
    rows = []
    for size in (96, 4):
        config = dataclasses.replace(BENCH_CONFIG, wpq=WPQConfig(size, size))
        result = sweep(("ps",), args.workloads[:1], config=config)[0]
        rows.append((size, result.cycles, result.nvm_writes))
    print(format_table(
        "WPQ sizing — PS-ORAM with full-path vs 4-entry WPQs",
        ["WPQ entries", "Cycles", "NVM writes"], rows,
    ))


EXPERIMENTS = {
    "table2": report_table2,
    "table4": report_table4,
    "fig5a": report_fig5a,
    "fig5b": report_fig5b,
    "fig6": report_fig6,
    "fig7": report_fig7,
    "wpq": report_wpq,
}


def main(argv: Sequence[str] = None) -> int:
    from repro.bench.harness import set_execution_defaults

    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="all 14 workloads (slower)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps (the default)")
    parser.add_argument("--only", choices=sorted(EXPERIMENTS), default=None,
                        help="run a single experiment")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run sweep points on N worker processes "
                             "(see docs/PARALLEL.md)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    parser.add_argument("--profile", type=int, nargs="?", const=25, default=None,
                        metavar="N",
                        help="run under cProfile and print the top N "
                             "functions by cumulative time (default N: 25; "
                             "see docs/PERF.md)")
    parser.add_argument("--list-variants", action="store_true",
                        help="print the hierarchy x policy x posmap matrix "
                             "of evaluated systems and exit")
    args = parser.parse_args(argv)
    if args.list_variants:
        return _list_variants()
    if args.full and args.quick:
        parser.error("--full and --quick are mutually exclusive")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.profile is not None and args.profile < 1:
        parser.error(f"--profile must be >= 1, got {args.profile}")
    args.workloads = list(FULL_WORKLOADS if args.full else BENCH_WORKLOADS)
    set_execution_defaults(
        jobs=args.jobs, use_cache=False if args.no_cache else None
    )

    if args.profile is not None:
        return _run_profiled(args)
    return _run_experiments(args)


def _list_variants() -> int:
    """Print every registered variant as a hierarchy x policy x posmap row."""
    from repro.engine.registry import variant_specs

    specs = variant_specs()
    widths = (
        max(len(s.name) for s in specs),
        max(len(s.hierarchy) for s in specs),
        max(len(s.policy) for s in specs),
        max(len(s.posmap) for s in specs),
    )
    header = ("variant", "hierarchy", "policy", "posmap")
    widths = tuple(max(w, len(h)) for w, h in zip(widths, header))
    row = "{:<%d}  {:<%d}  {:<%d}  {:<%d}  {}" % widths
    print(row.format(*header, "description"))
    print(row.format(*("-" * w for w in widths), "-----------"))
    for spec in specs:
        print(row.format(spec.name, spec.hierarchy, spec.policy,
                         spec.posmap, spec.summary))
    return 0


def _run_profiled(args) -> int:
    """Run the selected experiments under cProfile, then print the top-N
    functions by cumulative time (profiling only covers the parent
    process — pair with ``--jobs 1``, the default, for full coverage)."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _run_experiments(args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(args.profile)
    return status


def _run_experiments(args) -> int:
    todo: List[str] = [args.only] if args.only else list(EXPERIMENTS)
    for index, name in enumerate(todo):
        started = time.time()
        try:
            EXPERIMENTS[name](args)
        except KeyboardInterrupt:
            # The pool has already killed outstanding workers and flushed
            # the journal; report the partial run and exit nonzero.
            print(f"\n[interrupted during {name}]", file=sys.stderr)
            return 130
        print(f"[{name}: {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
