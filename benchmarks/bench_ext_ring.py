"""Extension bench: PS crash consistency generalized to Ring ORAM.

The paper's abstract claims support "for general ORAM protocols"; this
bench quantifies the claim on our from-scratch Ring ORAM: the overhead of
PS-Ring over the Ring baseline (analogous to Figure 5(a)'s PS vs Baseline
bar), and the traffic decomposition of the in-place backup scheme.
"""

from repro.bench.harness import BENCH_CONFIG, format_table
from repro.ring.controller import RingORAMController
from repro.core.variants import build_variant
from repro.util.rng import DeterministicRNG

ACCESSES = 300


def _drive(controller, seed=5):
    rng = DeterministicRNG(seed)
    span = controller.oram_config.num_logical_blocks // 2
    for i in range(ACCESSES):
        controller.write(rng.randrange(span), bytes([i % 256]))
    return controller


def test_ps_ring_overhead(benchmark):
    def run():
        base = _drive(RingORAMController(BENCH_CONFIG))
        ps = _drive(build_variant("ring-ps", BENCH_CONFIG))
        return base, ps

    base, ps = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ("ring-baseline", 1.0, 1.0, 1.0),
        (
            "ring-ps",
            ps.now / base.now,
            ps.traffic.total_reads / base.traffic.total_reads,
            ps.traffic.total_writes / base.traffic.total_writes,
        ),
    ]
    print()
    print(
        format_table(
            "PS on Ring ORAM: overhead vs Ring baseline "
            "(cf. PS-ORAM's +4.29% on Path ORAM)",
            ["Variant", "Cycles", "Reads", "Writes"],
            rows,
        )
    )
    print(f"in-place backups: {ps.stats.get('inplace_backups')}, "
          f"evict-preserved: {ps.stats.get('evict_backups_preserved')}, "
          f"entries persisted: {ps.stats.get('posmap_entries_persisted')}")
    # The write-back scheme costs more than Path's (every access rewrites
    # its read slots) but stays in the low tens of percent.
    assert 1.0 < ps.now / base.now < 1.35
    assert ps.traffic.total_reads / base.traffic.total_reads < 1.05


def test_ring_access_path_is_lighter_than_path_oram(benchmark):
    """Ring's raison d'etre: the online access touches L+1 blocks, not
    Z*(L+1).  (EvictPath amortizes the difference back; we report both.)"""
    from repro.oram.controller import PathORAMController

    def run():
        path = _drive(PathORAMController(BENCH_CONFIG), seed=6)
        ring = _drive(RingORAMController(BENCH_CONFIG), seed=6)
        return path, ring

    path, ring = benchmark.pedantic(run, rounds=1, iterations=1)
    levels = BENCH_CONFIG.oram.height + 1
    rows = [
        ("path-oram", path.traffic.total_reads / ACCESSES,
         path.traffic.total_writes / ACCESSES),
        ("ring-oram", ring.traffic.total_reads / ACCESSES,
         ring.traffic.total_writes / ACCESSES),
    ]
    print()
    print(
        format_table(
            "Per-access NVM line transfers (incl. amortized evictions)",
            ["Protocol", "Reads/access", "Writes/access"],
            rows,
        )
    )
    # The online (blocking) portion: Path reads Z*(L+1) data lines, Ring
    # reads (L+1) slots + (L+1) metadata lines.
    assert 2 * levels < BENCH_CONFIG.oram.z * levels
