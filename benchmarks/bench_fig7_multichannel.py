"""Figure 7: performance in multi-channel memory systems.

Paper: PS-ORAM gains 51.26% (2ch) and 53.76% (4ch) over its single-channel
self; Rcr-PS-ORAM gains 46.50% / 55.21%; the gap to the corresponding
baselines stays small (4.94% / 5.32% non-recursive, 2.12% / 5.36%
recursive).  Gains flatten from 2 to 4 channels.

The experiment is :func:`repro.report.fig7`; ``python -m repro --only
fig7 [--window N] [--integrity]`` prints the same table.  ``--window``
runs every variant behind the memory-level-parallel access window
(docs/SCHEDULER.md), which deepens the multi-channel gains by
overlapping disjoint-path accesses across channels; window 1 (the
default) is the serial pipeline the paper models.
"""

from repro.bench.harness import BENCH_CONFIG, BENCH_WORKLOADS
from repro.report import FIG7_CHANNELS, fig7


def test_fig7_multichannel(benchmark):
    data = benchmark.pedantic(
        lambda: fig7(BENCH_WORKLOADS, BENCH_CONFIG), rounds=1, iterations=1
    )
    ps_speedup_2 = data[1]["cycles"]["ps"] / data[2]["cycles"]["ps"]
    ps_speedup_4 = data[1]["cycles"]["ps"] / data[4]["cycles"]["ps"]
    # Shapes: real gain at 2 channels, diminishing at 4; PS gap stays small.
    assert ps_speedup_2 > 1.15
    assert ps_speedup_4 > ps_speedup_2
    assert (ps_speedup_4 / ps_speedup_2) < ps_speedup_2
    for channels in FIG7_CHANNELS:
        assert data[channels]["gap"]["ps"] - 1.0 < 0.15
