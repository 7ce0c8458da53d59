"""The paper's evaluation, regenerated as text tables.

``python -m repro`` (or ``python -m repro.report``) runs every experiment
and prints each table and figure analogue with the paper's published
values alongside — the script behind EXPERIMENTS.md.  Each experiment is
one function here, ``experiment(workloads, config)``: it runs its sweep,
prints one table whose paper column comes from :data:`PAPER`, and
returns the measured numbers.  The ``benchmarks/bench_*.py`` modules of
these experiments call the same functions and assert on what they
return.

Options::

    python -m repro                  # 4-workload subset (the default)
    python -m repro --full           # all 14 workloads
    python -m repro --only fig5a     # one experiment id
    python -m repro --window 4       # memory-level-parallel access window
    python -m repro --integrity      # attach the integrity domain
    python -m repro --jobs 4         # parallel sweep points (repro.exec)
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
from repro.config import SystemConfig, WPQConfig
from repro.core.variants import NON_RECURSIVE_VARIANTS
from repro.energy.model import EADR_CACHE, EADR_ORAM, PS_ORAM, PS_ORAM_SMALL
from repro.sim.results import geometric_mean, normalize
from repro.util.units import format_energy, format_time
from repro.workloads.spec import SPEC_WORKLOADS, measure_llc_misses, spec_workload

#: The paper's published values (ISCA'22, Sections 4.2.4 and 5), the one
#: source of every report's paper column.  Bare variant names are Fig.
#: 5(a)/(b) execution times normalized to Baseline; ``reads.``/``writes.``
#: are Fig. 6 traffic normalized to Baseline; ``fig7.`` entries are Fig. 7
#: speedups over the variant's own single-channel run and gaps to
#: Baseline; ``table2.`` entries are Table 2 drain costs in pJ and ns;
#: ``mpki.`` entries are Table 4, read from the calibration targets the
#: trace generators are built to (:data:`repro.workloads.spec.SPEC_WORKLOADS`).
PAPER: Dict[str, float] = {
    "baseline": 1.0,
    "fullnvm": 1.9054,
    "fullnvm-stt": 1.3769,
    "naive-ps": 1.7392,
    "ps": 1.0429,
    "rcr-baseline": 1.6893,
    "rcr-ps": 1.7510,
    "rcr-ps/rcr-baseline": 1.0365,
    "reads.rcr-baseline": 1.903,
    "reads.rcr-ps": 1.905,
    "writes.fullnvm": 2.1163,
    "writes.naive-ps": 2.009,
    "writes.ps": 1.0484,
    "fig7.speedup@2.ps": 1.5126,
    "fig7.speedup@4.ps": 1.5376,
    "fig7.speedup@2.rcr-ps": 1.4650,
    "fig7.speedup@4.rcr-ps": 1.5521,
    "fig7.gap@2.ps": 1.0494,
    "fig7.gap@4.ps": 1.0532,
    "table2.eADR-cache.energy_pj": 12.653e9,
    "table2.eADR-cache.time_ns": 26.638e3,
    "table2.eADR-ORAM.energy_pj": 2.286e12,
    "table2.eADR-ORAM.time_ns": 4.817e6,
    "table2.PS-ORAM (96).energy_pj": 76.530e6,
    "table2.PS-ORAM (96).time_ns": 161.134,
    "table2.PS-ORAM (4).energy_pj": 2.83e6,
    "table2.PS-ORAM (4).time_ns": 6.713,
    "table2.eADR-cache.vs_ps": 165,
    "table2.eADR-ORAM.vs_ps": 29870,
    **{f"mpki.{name}": spec.mpki for name, spec in SPEC_WORKLOADS.items()},
}

#: Memory references and seed per Table-4 MPKI measurement: enough to
#: stabilize MPKI through the caches.
TABLE4_REFERENCES = 6000
TABLE4_SEED = 7

FIG5B_VARIANTS = ("baseline", "rcr-baseline", "rcr-ps")
FIG6_VARIANTS = (
    "baseline", "fullnvm", "fullnvm-stt", "naive-ps", "ps",
    "rcr-baseline", "rcr-ps",
)
FIG7_CHANNELS = (1, 2, 4)
FIG7_VARIANTS = ("baseline", "ps", "rcr-baseline", "rcr-ps")
WPQ_SIZES = (96, 48, 8, 4)

_NAN = float("nan")


def _paper(key: str):
    return PAPER.get(key, "-")


def _normalized(results, metric="cycles"):
    """Per-workload values normalized to Baseline, and their geomeans."""
    table = normalize(results, "baseline", metric)
    return table, {v: geometric_mean(row.values()) for v, row in table.items()}


def _mean_by_variant(results, value) -> Dict[str, float]:
    by_variant: Dict[str, List[float]] = {}
    for result in results:
        by_variant.setdefault(result.variant, []).append(value(result))
    return {v: sum(vals) / len(vals) for v, vals in by_variant.items()}


def _per_workload_rows(table, norm, variants, workloads):
    return [
        (variant,
         *(table.get(variant, {}).get(w, _NAN) for w in workloads),
         norm.get(variant, _NAN), _paper(variant))
        for variant in variants
    ]


def table2(workloads: Sequence[str], config: SystemConfig):
    """Table 2: drain energy and time at a crash, eADR vs PS-ORAM.

    The estimates are paper-sized and analytic, so ``workloads`` and
    ``config`` are unused.  Returns ``{system: DrainEstimate}``.
    """
    estimates = {
        "eADR-cache": EADR_CACHE,
        "eADR-ORAM": EADR_ORAM,
        "PS-ORAM (96)": PS_ORAM,
        "PS-ORAM (4)": PS_ORAM_SMALL,
    }
    rows = []
    for name, estimate in estimates.items():
        paper_energy = PAPER[f"table2.{name}.energy_pj"]
        paper_time = PAPER[f"table2.{name}.time_ns"]
        paper_ratio = f"table2.{name}.vs_ps"
        rows.append((
            name, estimate.total_bytes,
            format_energy(paper_energy), format_energy(estimate.energy_pj),
            format_time(paper_time), format_time(estimate.time_ns),
            f"{PAPER[paper_ratio]:,}x" if paper_ratio in PAPER else "-",
            f"{estimate.energy_pj / PS_ORAM.energy_pj:,.0f}x",
        ))
    print(format_table(
        "Table 2 — draining energy and time at crash (energy vs PS-ORAM 96)",
        ["System", "Bytes", "Energy (paper)", "Energy", "Time (paper)", "Time",
         "vs PS (paper)", "vs PS"],
        rows,
    ))
    return estimates


def table4(workloads: Sequence[str], config: SystemConfig) -> Dict[str, float]:
    """Table 4: each workload's MPKI through the paper's L1/L2 hierarchy.

    ``config`` is unused (the hierarchy is the paper's).  Returns
    ``{workload: measured MPKI}``.
    """
    measured = {}
    for name in workloads:
        trace = spec_workload(name, references=TABLE4_REFERENCES, seed=TABLE4_SEED)
        measured[name] = 1000.0 * measure_llc_misses(trace) / trace.instructions
    print(format_table(
        "Table 4 — workload MPKIs",
        ["Workload", "Paper", "Measured", "Ratio"],
        [(name, PAPER[f"mpki.{name}"], mpki, mpki / PAPER[f"mpki.{name}"])
         for name, mpki in measured.items()],
    ))
    return measured


def fig5a(workloads: Sequence[str], config: SystemConfig) -> Dict[str, float]:
    """Figure 5(a): execution time of the non-recursive systems.

    Returns ``{variant: geomean of cycles normalized to Baseline}``.
    """
    results = sweep(NON_RECURSIVE_VARIANTS, workloads, config=config)
    table, norm = _normalized(results)
    print(format_table(
        "Figure 5(a) — execution time normalized to Baseline",
        ["Variant", *workloads, "geomean", "Paper"],
        _per_workload_rows(table, norm, NON_RECURSIVE_VARIANTS, workloads),
    ))
    return norm


def fig5b(workloads: Sequence[str], config: SystemConfig) -> Dict[str, float]:
    """Figure 5(b): execution time of the recursive systems.

    Returns ``{variant: geomean of cycles normalized to (non-recursive)
    Baseline}``; the last row of the table is Rcr-PS over Rcr-Baseline.
    """
    results = sweep(FIG5B_VARIANTS, workloads, config=config)
    table, norm = _normalized(results)
    within = [
        table["rcr-ps"].get(w, _NAN) / table["rcr-baseline"].get(w, _NAN)
        for w in workloads
    ]
    within.append(norm["rcr-ps"] / norm["rcr-baseline"])
    within.append(PAPER["rcr-ps/rcr-baseline"])
    rows = _per_workload_rows(table, norm, FIG5B_VARIANTS, workloads)
    rows.append(("rcr-ps / rcr-baseline", *(f"{r - 1:+.2%}" for r in within)))
    print(format_table(
        "Figure 5(b) — execution time normalized to (non-recursive) Baseline",
        ["Variant", *workloads, "geomean", "Paper"],
        rows,
    ))
    return norm


def fig6(workloads: Sequence[str], config: SystemConfig):
    """Figure 6: NVM read and write traffic of every design.

    Returns ``{"reads": ..., "writes": ..., "writes_per_miss": ...}``,
    each ``{variant: value}``: geomean reads and writes normalized to
    Baseline, and mean NVM line writes per LLC miss (the wear the
    persistence policy adds).
    """
    results = sweep(FIG6_VARIANTS, workloads, config=config)
    _, reads = _normalized(results, "nvm_reads")
    _, writes = _normalized(results, "nvm_writes")
    writes_per_miss = _mean_by_variant(
        results, lambda r: r.nvm_writes / max(r.llc_misses, 1)
    )
    print(format_table(
        "Figure 6 — NVM traffic normalized to Baseline (geomean), "
        "and NVM writes per LLC miss",
        ["Variant", "Reads", "Reads (paper)", "Writes", "Writes (paper)",
         "Writes/miss"],
        [(v, reads.get(v, _NAN), _paper(f"reads.{v}"),
          writes.get(v, _NAN), _paper(f"writes.{v}"),
          writes_per_miss.get(v, _NAN))
         for v in FIG6_VARIANTS],
    ))
    return {"reads": reads, "writes": writes, "writes_per_miss": writes_per_miss}


def fig7(workloads: Sequence[str], config: SystemConfig):
    """Figure 7: channel scaling on the first two workloads.

    Returns ``{channels: {"cycles": {variant: mean cycles}, "gap":
    {variant: geomean cycles normalized to Baseline}}}``.
    """
    data = {}
    for channels in FIG7_CHANNELS:
        results = sweep(FIG7_VARIANTS, workloads[:2],
                        config=dataclasses.replace(config, channels=channels))
        data[channels] = {
            "gap": _normalized(results)[1],
            "cycles": _mean_by_variant(results, lambda r: r.cycles),
        }
    rows = []
    for variant in FIG7_VARIANTS:
        base = data[1]["cycles"][variant]
        rows.append((
            variant,
            *(base / data[ch]["cycles"][variant] for ch in FIG7_CHANNELS),
            *(_paper(f"fig7.speedup@{ch}.{variant}") for ch in FIG7_CHANNELS[1:]),
            *(data[ch]["gap"].get(variant, _NAN) for ch in FIG7_CHANNELS),
            *(_paper(f"fig7.gap@{ch}.{variant}") for ch in FIG7_CHANNELS[1:]),
        ))
    print(format_table(
        f"Figure 7 — channel scaling on {', '.join(workloads[:2])} "
        "(speedup vs own 1ch; gap vs Baseline)",
        ["Variant", "1ch", "2ch", "4ch", "2ch (paper)", "4ch (paper)",
         "gap@1", "gap@2", "gap@4", "gap@2 (paper)", "gap@4 (paper)"],
        rows,
    ))
    return data


def wpq(workloads: Sequence[str], config: SystemConfig):
    """WPQ sizing ablation (paper Section 4.2.3): PS-ORAM on the first
    workload with shrinking WPQs.  Returns ``{entries: RunResult}``."""
    results = {
        size: sweep(("ps",), workloads[:1],
                    config=dataclasses.replace(config, wpq=WPQConfig(size, size)))[0]
        for size in WPQ_SIZES
    }
    full = results[WPQ_SIZES[0]]
    print(format_table(
        f"WPQ sizing — PS-ORAM on {workloads[0]} (ratios vs {WPQ_SIZES[0]} entries)",
        ["WPQ entries", "Cycles", "NVM writes", "Cycles ratio", "Writes ratio"],
        [(size, r.cycles, r.nvm_writes, r.cycles / full.cycles,
          r.nvm_writes / full.nvm_writes)
         for size, r in results.items()],
    ))
    return results


EXPERIMENTS = {
    "table2": table2,
    "table4": table4,
    "fig5a": fig5a,
    "fig5b": fig5b,
    "fig6": fig6,
    "fig7": fig7,
    "wpq": wpq,
}


def main(argv: Sequence[str] = None) -> int:
    from repro.bench.harness import set_execution_defaults
    from repro.exec.journal import RunJournal, default_journal_path

    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--full", action="store_true",
                        help="all 14 workloads (slower)")
    parser.add_argument("--only", choices=sorted(EXPERIMENTS), default=None,
                        help="run a single experiment")
    parser.add_argument("--window", type=int, default=1, metavar="N",
                        help="memory-level-parallel access window depth "
                             "(1 = serial pipeline; see docs/SCHEDULER.md)")
    parser.add_argument("--integrity", action="store_true",
                        help="attach the crash-consistent integrity domain "
                             "to every variant (see docs/INTEGRITY.md)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run sweep points on N worker processes "
                             "(see docs/PARALLEL.md)")
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
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.window < 1:
        parser.error(f"--window must be >= 1, got {args.window}")
    if args.profile is not None and args.profile < 1:
        parser.error(f"--profile must be >= 1, got {args.profile}")
    args.workloads = list(FULL_WORKLOADS if args.full else BENCH_WORKLOADS)
    args.config = dataclasses.replace(
        BENCH_CONFIG, sched_window=args.window, integrity=args.integrity
    )
    # Every run journals its sweeps, so `python -m repro.exec status`
    # reads the latest one at any --jobs.
    with RunJournal(default_journal_path()) as journal:
        set_execution_defaults(jobs=args.jobs, journal=journal)
        try:
            if args.profile is not None:
                return _run_profiled(args)
            return _run_experiments(args)
        finally:
            set_execution_defaults(journal=None)


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
    for name in todo:
        started = time.time()
        try:
            EXPERIMENTS[name](args.workloads, args.config)
        except KeyboardInterrupt:
            # The pool has already killed outstanding workers and flushed
            # the journal; report the partial run and exit nonzero.
            print(f"\n[interrupted during {name}]", file=sys.stderr)
            return 130
        print(f"[{name}: {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
