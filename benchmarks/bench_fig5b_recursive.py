"""Figure 5(b): normalized execution time, recursive systems.

Paper: Rcr-Baseline +68.93% and Rcr-PS-ORAM +75.10% over the non-recursive
Baseline; the PS overhead *within* the recursive family is 3.65%.

The experiment is :func:`repro.report.fig5b`; ``python -m repro --only
fig5b [--full] [--window N] [--integrity]`` prints the same table.
"""

from repro.bench.harness import BENCH_CONFIG, BENCH_WORKLOADS
from repro.report import fig5b


def test_fig5b_recursive_performance(benchmark):
    norm = benchmark.pedantic(
        lambda: fig5b(BENCH_WORKLOADS, BENCH_CONFIG), rounds=1, iterations=1
    )
    ps_within = norm["rcr-ps"] / norm["rcr-baseline"]
    # Shapes: recursion costs a large constant; PS adds single digits on top.
    assert norm["rcr-baseline"] > 1.4
    assert norm["rcr-ps"] > norm["rcr-baseline"]
    # With the intent record posted at WPQ acceptance the PS tax is 3.65%;
    # an access that stalls on the record's NVM write again pays 5.68%.
    assert ps_within - 1.0 < 0.05
