"""Ablation: NVM lifetime friendliness (abstract claim).

The abstract claims PS-ORAM "is friendly to NVM lifetime".  Lifetime on
write-limited NVM is governed by total write volume and by per-line wear
concentration; this bench measures both, per persistence design, with the
wear tracker enabled.
"""

from repro.bench.harness import BENCH_CONFIG, format_table
from repro.core.variants import build_variant
from repro.mem.controller import NVMMainMemory
from repro.util.rng import DeterministicRNG

ACCESSES = 250


def _wear_run(variant):
    memory = NVMMainMemory(
        BENCH_CONFIG.nvm,
        channels=BENCH_CONFIG.channels,
        banks_per_channel=BENCH_CONFIG.banks_per_channel,
        line_bytes=BENCH_CONFIG.oram.block_bytes,
        track_wear=True,
    )
    controller = build_variant(variant, BENCH_CONFIG, memory=memory)
    rng = DeterministicRNG(3)
    span = BENCH_CONFIG.oram.num_logical_blocks // 2
    for i in range(ACCESSES):
        controller.write(rng.randrange(span), bytes([i % 256]))
    meter = memory.traffic
    return (
        meter.total_writes / ACCESSES,
        meter.max_line_writes(),
        meter.wear_imbalance(),
    )


def test_lifetime_per_design(benchmark):
    variants = ("baseline", "ps", "naive-ps", "rcr-ps")

    def run():
        return {v: _wear_run(v) for v in variants}

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (variant, writes, hottest, imbalance)
        for variant, (writes, hottest, imbalance) in data.items()
    ]
    print()
    print(
        format_table(
            "NVM lifetime: write volume and wear concentration per design",
            ["Variant", "Writes/access", "Hottest line", "Max/mean wear"],
            rows,
        )
    )
    # PS-ORAM adds almost no write volume over the non-persistent baseline,
    # while Naive doubles it — the lifetime claim, quantified.
    assert data["ps"][0] < 1.1 * data["baseline"][0]
    assert data["naive-ps"][0] > 1.8 * data["baseline"][0]


def test_root_bucket_is_the_hot_spot(benchmark):
    """The ORAM root is written every access — the canonical wear target."""
    def run():
        memory = NVMMainMemory(
            BENCH_CONFIG.nvm, line_bytes=64, track_wear=True
        )
        controller = build_variant("ps", BENCH_CONFIG, memory=memory)
        rng = DeterministicRNG(4)
        for i in range(ACCESSES):
            controller.write(rng.randrange(500), bytes([i % 256]))
        meter = memory.traffic
        root_writes = meter._line_writes.get(0, 0)
        return root_writes, meter.max_line_writes()

    root_writes, hottest = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nroot slot-0 writes: {root_writes} / {ACCESSES} accesses; "
          f"hottest line overall: {hottest}")
    # Every eviction rewrites the root bucket: near one write per access.
    assert root_writes >= 0.9 * ACCESSES
