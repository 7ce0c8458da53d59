"""Memory-bus observer: what a physical attacker sees.

The threat model (paper Section 2.1) grants the adversary the address,
command and data buses — addresses and read/write types in cleartext, data
as ciphertext.  The observer registers as an :class:`NVMMainMemory`'s
``request_observer`` and records exactly that view (line addresses,
read/write and request kind), so the analysis module can test whether two
logical access sequences are distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, MemoryRequest


@dataclass(frozen=True)
class ObservedAccess:
    """One bus event visible to the adversary."""

    address: int
    is_write: bool
    kind: str  # visible only as a region in practice; kept for analysis


class BusObserver:
    """Records every request an NVM memory services."""

    def __init__(self, memory: NVMMainMemory):
        if memory.request_observer is not None:
            raise ValueError("memory already has a request observer attached")
        self.memory = memory
        self.events: List[ObservedAccess] = []
        memory.request_observer = self._record

    def _record(self, address: int, request: MemoryRequest) -> None:
        self.events.append(
            ObservedAccess(
                request.address, request.access is Access.WRITE, request.kind.value
            )
        )

    def detach(self) -> None:
        """Stop observing."""
        self.memory.request_observer = None

    def addresses(self) -> List[int]:
        return [event.address for event in self.events]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __enter__(self) -> "BusObserver":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()
