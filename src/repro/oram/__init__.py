"""Path ORAM substrate.

Implements the Stefanov et al. Path ORAM construction the paper builds on:

* :mod:`repro.oram.block` — block format (header with program address, path
  id, version; IV1/IV2 split encryption per Fletcher et al.).
* :mod:`repro.oram.bucket` — Z-slot buckets.
* :mod:`repro.oram.layout` — NVM address map (tree region, PosMap region,
  and the one recursive PosMap tree).
* :mod:`repro.oram.tree` — the NVM-resident ORAM tree (functional + timed).
* :mod:`repro.oram.stash` — the on-chip stash.
* :mod:`repro.oram.posmap` — position map (volatile and NVM-backed views).
* :mod:`repro.oram.controller` — the baseline (non-persistent) Path ORAM
  controller implementing the 5-step access protocol of Section 2.2.2.
* :mod:`repro.oram.recursive` — recursive PosMap ORAM: one posmap tree,
  no PLB, as in the paper's recursive systems.
"""

from repro.oram.block import DUMMY_ADDRESS, Block
from repro.oram.bucket import Bucket
from repro.oram.controller import AccessResult, PathORAMController
from repro.oram.layout import MemoryLayout
from repro.oram.posmap import PositionMap
from repro.oram.recursive import RecursivePathORAM
from repro.oram.stash import Stash, StashEntry
from repro.oram.tree import ORAMTree

__all__ = [
    "DUMMY_ADDRESS",
    "Block",
    "Bucket",
    "MemoryLayout",
    "ORAMTree",
    "PositionMap",
    "Stash",
    "StashEntry",
    "PathORAMController",
    "RecursivePathORAM",
    "AccessResult",
]
