"""Ablation: the hybrid DRAM tree-top.

Quantifies the paper's Section-4.5 hybrid direction (tree-top DRAM
replication, write-through): how much execution time and NVM read traffic
each DRAM-resident level buys, at no cost in crash consistency.
"""

from repro.bench.harness import BENCH_CONFIG, format_table
from repro.hybrid.controller import HybridPSORAMController
from repro.mem.request import RequestKind
from repro.util.rng import DeterministicRNG

ACCESSES = 250


def _drive(controller, span=600, seed=5):
    rng = DeterministicRNG(seed)
    for i in range(ACCESSES):
        controller.write(rng.randrange(span), bytes([i % 256]))
    return controller


def test_hybrid_dram_level_sweep(benchmark):
    def run():
        out = {}
        for levels in (0, 2, 4, 6, 8):
            controller = _drive(
                HybridPSORAMController(BENCH_CONFIG, dram_levels=levels)
            )
            out[levels] = (
                controller.now,
                controller.memory.traffic.reads_of(RequestKind.DATA_PATH),
                controller.dram_read_fraction(),
            )
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    base_now, base_reads, _ = data[0]
    rows = [
        (levels, now / base_now, reads / base_reads, fraction)
        for levels, (now, reads, fraction) in data.items()
    ]
    print()
    print(
        format_table(
            "Hybrid tree-top: DRAM levels vs time and NVM read traffic",
            ["DRAM levels", "Cycles", "NVM data reads", "DRAM read share"],
            rows,
        )
    )
    # Monotone benefit, write-through keeps everything else equal.
    assert data[8][0] < data[4][0] < data[0][0]
    assert data[8][1] < data[0][1]
