"""Crash-consistent persistent integrity metadata (secure persistent NVM).

The subsystem has three parts:

* :mod:`repro.integrity.buckets` — the path-aligned bucket tree: each
  ORAM tree region is its own Merkle tree, digests riding in bucket lines;
* :mod:`repro.integrity.tree` — the lazy-propagation line-packed Merkle
  tree over the small residual region (flat PosMap, scratch, intent log);
* :mod:`repro.integrity.domain` — the persistence domain that registers
  both into the engine pipeline, persists the residual tree's digest
  lines as first-class NVM traffic, and enforces the recovery contract
  (recomputed root == persisted witness).

See docs/INTEGRITY.md for the design and the per-policy disciplines.
"""

from repro.integrity.buckets import BucketIntegrityTree
from repro.integrity.domain import (
    DEFAULT_INTEGRITY_KEY,
    INTEGRITY_CRASH_POINTS,
    INTEGRITY_DISCIPLINES,
    IntegrityDomain,
    enable_integrity,
)
from repro.integrity.tree import MerkleIntegrityTree

__all__ = [
    "BucketIntegrityTree",
    "DEFAULT_INTEGRITY_KEY",
    "INTEGRITY_CRASH_POINTS",
    "INTEGRITY_DISCIPLINES",
    "IntegrityDomain",
    "MerkleIntegrityTree",
    "enable_integrity",
]
