"""NVM memory substrate.

Models the off-chip persistent-memory system the ORAM tree lives in:

* :mod:`repro.mem.request` — typed memory requests.
* :mod:`repro.mem.device` — per-technology timing (PCM / STT-RAM).
* :mod:`repro.mem.bank` / :mod:`repro.mem.channel` — bank conflicts and
  per-channel serialization.
* :mod:`repro.mem.controller` — the multi-channel memory controller plus a
  byte-addressable backing store (the "NVM chips").
* :mod:`repro.mem.wpq` — the ADR persistence domain: write-pending
  queues whose closed rounds survive a crash.
* :mod:`repro.mem.traffic` — read/write traffic and wear accounting.
"""

from repro.mem.controller import NVMMainMemory
from repro.mem.device import DeviceTimingModel
from repro.mem.request import Access, MemoryRequest
from repro.mem.traffic import TrafficMeter
from repro.mem.wpq import WritePendingQueue

__all__ = [
    "Access",
    "MemoryRequest",
    "DeviceTimingModel",
    "NVMMainMemory",
    "TrafficMeter",
    "WritePendingQueue",
]
