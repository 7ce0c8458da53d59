"""Ablation: WPQ sizing (paper Section 4.2.3).

The paper claims WPQ size does not affect PS-ORAM performance (the WPQs
are not on the lookup path) — but a WPQ smaller than one path forces the
ordered multi-round eviction, whose extra bounce writes and round overhead
this bench quantifies.

The experiment is :func:`repro.report.wpq`; ``python -m repro --only
wpq`` prints the same table.
"""

from repro.bench.harness import BENCH_CONFIG, BENCH_WORKLOADS
from repro.report import WPQ_SIZES, wpq


def test_wpq_size_sweep(benchmark):
    results = benchmark.pedantic(
        lambda: wpq(BENCH_WORKLOADS, BENCH_CONFIG), rounds=1, iterations=1
    )
    full = results[WPQ_SIZES[0]]
    path_slots = BENCH_CONFIG.oram.path_blocks
    for size, result in results.items():
        ratio = result.cycles / full.cycles
        if size >= path_slots:
            # Full-path WPQ: single atomic round, no overhead.
            assert ratio < 1.02
        else:
            # Ordered eviction costs a little, never an order of magnitude.
            assert ratio < 1.40
        # Bounce writes are rare: write traffic within a few percent.
        assert result.nvm_writes / full.nvm_writes < 1.05
