"""PS-ORAM: the paper's contribution — crash-consistent ORAM on NVM.

* :mod:`repro.core.temp_posmap` — the temporary PosMap that buffers freshly
  remapped path ids until the matching data is durable.
* :mod:`repro.core.drainer` — the drainer orchestrating atomic dual-WPQ
  eviction rounds ("start"/"end" signals).
* :mod:`repro.core.backup` — backup (shadow) block creation.
* :mod:`repro.core.plain` — non-ORAM NVM system (the paper's 11x yardstick).
* :mod:`repro.core.ordered_eviction` — limited-WPQ ordered write-back.
* :mod:`repro.core.recovery` — post-crash recovery (paper Section 4.3).
* :mod:`repro.core.recursive_ps` — Rcr-PS-ORAM.
* :mod:`repro.core.variants` — the registry rows building every evaluated
  system (the protocols themselves are policies in :mod:`repro.engine`).
"""

from repro.core.plain import PlainNVMController
from repro.core.recursive_ps import RcrPSORAMController
from repro.core.temp_posmap import TempPosMap
from repro.core.variants import build_variant

__all__ = [
    "PlainNVMController",
    "RcrPSORAMController",
    "TempPosMap",
    "build_variant",
]
