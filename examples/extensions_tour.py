#!/usr/bin/env python
"""Tour of the beyond-the-paper extension.

**Integrity** (related work): a keyed Merkle tree over the NVM image
catches replay attacks the per-line MACs cannot.

Run:  python examples/extensions_tour.py
"""

from repro import build_variant, small_config
from repro.integrity import enable_integrity


def tour_integrity() -> None:
    print("=" * 70)
    print("Merkle integrity: catching replay attacks")
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
    tour_integrity()


if __name__ == "__main__":
    main()
