"""Table 2: estimated draining energy and time, eADR vs PS-ORAM.

Paper values: eADR-cache 12.653mJ / 26.638us; eADR-ORAM 2.286J / 4.817ms;
PS-ORAM 76.530uJ / 161.134ns (96-entry WPQs) and ~2.83uJ / 6.713ns
(4-entry; the paper's energy cell is inconsistent with its own time cell —
we report the 284-byte-consistent 3.19uJ, see EXPERIMENTS.md).

The experiment is :func:`repro.report.table2`; ``python -m repro --only
table2`` prints the same table.
"""

from repro.bench.harness import BENCH_CONFIG, BENCH_WORKLOADS
from repro.report import PAPER, table2


def _within(measured, key, tolerance):
    return abs(measured - PAPER[key]) / PAPER[key] < tolerance


def test_table2_draining_costs(benchmark):
    estimates = benchmark.pedantic(
        lambda: table2(BENCH_WORKLOADS, BENCH_CONFIG), rounds=1, iterations=1
    )
    ps = estimates["PS-ORAM (96)"]
    assert len(estimates) == 4
    # Paper's headline factors.
    assert _within(estimates["eADR-ORAM"].energy_pj / ps.energy_pj,
                   "table2.eADR-ORAM.vs_ps", 0.07)
    assert _within(estimates["eADR-cache"].energy_pj / ps.energy_pj,
                   "table2.eADR-cache.vs_ps", 0.07)
    assert _within(ps.time_ns, "table2.PS-ORAM (96).time_ns", 0.01)
    assert _within(estimates["PS-ORAM (4)"].time_ns,
                   "table2.PS-ORAM (4).time_ns", 0.01)
