"""Table 4: workloads and their MPKIs.

Regenerates the paper's workload-characterization table: each synthetic
SPEC-like trace is run through the paper's L1/L2 hierarchy and its measured
MPKI is compared with the published value.

The experiment is :func:`repro.report.table4`; ``python -m repro --full
--only table4`` prints the same table.
"""

import pytest

from repro.bench.harness import BENCH_CONFIG, FULL_WORKLOADS
from repro.report import PAPER, table4


def test_table4_all_workloads(benchmark):
    measured = benchmark.pedantic(
        lambda: table4(FULL_WORKLOADS, BENCH_CONFIG), rounds=1, iterations=1
    )
    for name, mpki in measured.items():
        paper = PAPER[f"mpki.{name}"]
        ratio = mpki / paper
        assert 0.6 < ratio < 1.4, f"{name}: measured {mpki:.2f} vs paper {paper}"


@pytest.mark.parametrize("name", ["458.sjeng", "403.gcc"])
def test_mpki_extremes(benchmark, name):
    """The highest- and lowest-MPKI workloads calibrate correctly."""
    measured = benchmark.pedantic(
        lambda: table4([name], BENCH_CONFIG), rounds=1, iterations=1
    )
    assert measured[name] == pytest.approx(PAPER[f"mpki.{name}"], rel=0.4)
