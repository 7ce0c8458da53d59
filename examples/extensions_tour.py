#!/usr/bin/env python
"""Tour of the beyond-the-paper extensions.

The paper sketches two directions this library implements end-to-end:

1. **hybrid memory** (Section 4.5): a write-through DRAM tree-top that
   accelerates reads without weakening any crash guarantee;
2. **integrity** (related work): a keyed Merkle tree over the NVM image
   that catches replay attacks the per-line MACs cannot.

Run:  python examples/extensions_tour.py
"""

from repro import build_variant, small_config
from repro.hybrid.controller import HybridPSORAMController
from repro.integrity import enable_integrity
from repro.util.rng import DeterministicRNG


def tour_hybrid() -> None:
    print("=" * 70)
    print("1. Hybrid DRAM+NVM: write-through tree-top (Section 4.5)")
    print("=" * 70)
    config = small_config(height=9, seed=11)
    hybrid = HybridPSORAMController(config, dram_levels=5)
    rng = DeterministicRNG(2)
    model = {}
    for i in range(120):
        addr = rng.randrange(200)
        value = bytes([i % 256])
        hybrid.write(addr, value)
        model[addr] = value + bytes(63)
    print(f"DRAM serves {hybrid.dram_read_fraction():.0%} of data-path reads "
          f"(top {hybrid.treetop.dram_levels} of {config.oram.height + 1} levels)")
    hybrid.crash()  # DRAM replica evaporates
    assert hybrid.recover()
    survived = sum(1 for a, w in model.items() if hybrid.read(a).data == w)
    print(f"after power loss: {survived}/{len(model)} writes intact "
          f"(write-through kept NVM authoritative)\n")


def tour_integrity() -> None:
    print("=" * 70)
    print("2. Merkle integrity: catching replay attacks")
    print("=" * 70)
    controller = build_variant("ps", small_config(height=6, seed=11))
    domain = enable_integrity(controller)
    controller.write(1, b"version-1")
    # The attacker snapshots the NVM image...
    stolen = controller.memory.snapshot_image()
    controller.write(1, b"version-2")
    root = domain.root
    # ...and later replays the stale (perfectly authentic) image.
    controller.memory.restore_image(stolen)
    corrupt = domain.audit(expected_root=root)
    print(f"per-line MACs: all replayed lines still decrypt fine")
    print(f"Merkle audit: {len([c for c in corrupt if c >= 0])} replayed "
          f"lines flagged -> replay DETECTED")
    domain.detach()


def main() -> None:
    tour_hybrid()
    tour_integrity()


if __name__ == "__main__":
    main()
