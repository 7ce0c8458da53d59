"""Ring ORAM substrate + PS-Ring crash consistency.

The paper's abstract claims PS-ORAM "support[s] efficient crash consistency
for general ORAM protocols"; Ring ORAM (Ren et al., USENIX Security'15 —
the paper's reference [48]) is the other mainstream tree ORAM, with a very
different access shape: one block per bucket per access, deferred evictions
every ``A`` accesses, and per-bucket metadata with early reshuffles.  This
subpackage implements Ring ORAM from scratch and applies the PS-ORAM
mechanisms to it:

* the **temporary PosMap** and dirty-entry persistence carry over verbatim;
* the **backup block** becomes an *in-place slot write-back*: every slot
  read on the access path is re-written (re-encrypted, target slots with
  the fresh data), so a durable copy of the accessed block exists the
  moment the access returns — without revealing which bucket held it;
* **EvictPath** and early reshuffles commit through the same atomic
  dual-WPQ drainer rounds.

``repro.ring.controller.RingORAMController`` is the hierarchy; with the
default volatile policy it is ``ring-baseline``, and with
:class:`repro.engine.ps.RingDirtyEntryPSPolicy` attached it is the
crash-consistent ``ring-ps`` (both rows registered in
:mod:`repro.core.variants`).
"""

from repro.ring.controller import RingORAMController
from repro.ring.metadata import BucketMetadata

__all__ = ["RingORAMController", "BucketMetadata"]
