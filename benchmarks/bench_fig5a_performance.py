"""Figure 5(a): normalized execution time, non-recursive systems.

Paper (Z=4, 1 channel, geometric means over 14 SPEC workloads, normalized
to Baseline): FullNVM +90.54%, FullNVM(STT) +37.69%, Naive-PS-ORAM +73.92%,
PS-ORAM +4.29%.

The experiment is :func:`repro.report.fig5a`; ``python -m repro --only
fig5a [--full] [--window N] [--integrity]`` prints the same table.
"""

from repro.bench.harness import BENCH_CONFIG, BENCH_WORKLOADS
from repro.report import fig5a


def test_fig5a_normalized_performance(benchmark):
    norm = benchmark.pedantic(
        lambda: fig5a(BENCH_WORKLOADS, BENCH_CONFIG), rounds=1, iterations=1
    )
    # Shape assertions: ordering and rough factors.
    assert norm["ps"] < 1.15
    assert norm["ps"] < norm["fullnvm-stt"] < norm["fullnvm"]
    assert norm["naive-ps"] > 1.4
    assert norm["fullnvm"] > 1.3
