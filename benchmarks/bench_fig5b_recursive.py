"""Figure 5(b): normalized execution time, recursive systems.

Paper: Rcr-Baseline +68.93% and Rcr-PS-ORAM +75.10% over the non-recursive
Baseline; the PS overhead *within* the recursive family is 3.65%.

Runnable standalone: ``python benchmarks/bench_fig5b_recursive.py
[--full] [--jobs N] [--no-cache]``.
"""

from repro.bench.harness import BENCH_WORKLOADS, format_table, parse_bench_args, sweep
from repro.sim.results import geometric_mean, normalize

SYSTEMS = ("baseline", "rcr-baseline", "rcr-ps")


def _report(results, workloads):
    """Print the figure tables; returns the geomean-normalized dict."""
    table = normalize(results, "baseline", "cycles")
    norm = {variant: geometric_mean(row.values()) for variant, row in table.items()}
    rows = [
        (variant, *(table[variant].get(w, float("nan")) for w in workloads),
         norm[variant])
        for variant in SYSTEMS
    ]
    print()
    print(
        format_table(
            "Figure 5(b): execution time normalized to (non-recursive) Baseline",
            ["Variant", *workloads, "geomean"],
            rows,
        )
    )
    ps_within = norm["rcr-ps"] / norm["rcr-baseline"]
    print(f"Rcr-PS overhead within recursive family: {ps_within - 1:.2%} "
          f"(paper: 3.65%)")
    return norm


def test_fig5b_recursive_performance(benchmark):
    results = benchmark.pedantic(lambda: sweep(SYSTEMS), rounds=1, iterations=1)
    norm = _report(results, BENCH_WORKLOADS)
    ps_within = norm["rcr-ps"] / norm["rcr-baseline"]
    # Shapes: recursion costs a large constant; PS adds single digits on top.
    assert norm["rcr-baseline"] > 1.4
    assert norm["rcr-ps"] > norm["rcr-baseline"]
    # With the intent record posted at WPQ acceptance the PS tax is 3.65%;
    # an access that stalls on the record's NVM write again pays 5.68%.
    assert ps_within - 1.0 < 0.05


def main(argv=None) -> int:
    args = parse_bench_args(__doc__, argv)
    results = sweep(SYSTEMS, args.workloads)
    _report(results, args.workloads)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
