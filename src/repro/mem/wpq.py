"""Write-pending queues — the heart of the persistence domain.

Intel ADR guarantees that writes accepted into the memory controller's WPQs
reach the NVM even if power is lost.  PS-ORAM places *two* WPQs inside the
ADR domain — one for evicted data blocks, one for dirty PosMap entries — and
brackets each eviction round with a drainer-issued "start"/"end" signal pair
so the pair of queues commits atomically (paper Section 4.1/4.2.2).

The model here captures exactly that contract:

* entries pushed between ``begin_round()`` and ``end_round()`` belong to an
  *open* round;
* on a crash, open-round entries are **discarded** (the "end" signal never
  arrived, so ADR treats the round as not accepted) while entries of closed
  rounds are **guaranteed durable** and are replayed to the NVM;
* pushing past capacity raises, matching the hardware's fixed sizing.
"""

from __future__ import annotations

from typing import Generic, List, Sequence, Tuple, TypeVar

from repro.errors import PersistenceError, WPQOverflowError

T = TypeVar("T")


class WritePendingQueue(Generic[T]):
    """A fixed-capacity, round-bracketed persistent write queue.

    Entries are held columnar — destination addresses and payloads in two
    parallel lists, FIFO.  Only the newest round can be open, so its
    entries are always the suffix from ``_open_start``: a round boundary
    is one index, not a tag per entry.
    """

    def __init__(self, name: str, capacity: int):
        if capacity < 1:
            raise ValueError(f"WPQ capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._addresses: List[int] = []
        self._payloads: List[T] = []
        self._open_start = 0
        self._round_id = 0
        self._round_open = False
        self.pushed_total = 0
        self.drained_total = 0
        self.discarded_total = 0

    # -- round control (driven by the drainer) -----------------------------

    @property
    def round_open(self) -> bool:
        return self._round_open

    def begin_round(self) -> int:
        """Accept the drainer's "start" signal; returns the round id."""
        if self._round_open:
            raise PersistenceError(f"WPQ {self.name}: round {self._round_id} already open")
        self._round_id += 1
        self._round_open = True
        self._open_start = len(self._addresses)
        return self._round_id

    def end_round(self) -> None:
        """Accept the drainer's "end" signal: the open round becomes durable."""
        if not self._round_open:
            raise PersistenceError(f"WPQ {self.name}: no open round to end")
        self._round_open = False

    # -- data path ----------------------------------------------------------

    def push_batch(self, addresses: Sequence[int], payloads: Sequence[T]) -> None:
        """Queue a batch of writes, in order; must be inside an open round.

        One capacity check covers the whole batch: a batch that does not
        fit raises and queues nothing.
        """
        if not self._round_open:
            raise PersistenceError(f"WPQ {self.name}: push outside of a round")
        if len(addresses) != len(payloads):
            raise ValueError(
                f"WPQ {self.name}: {len(addresses)} addresses for "
                f"{len(payloads)} payloads"
            )
        if len(self._addresses) + len(addresses) > self.capacity:
            raise WPQOverflowError(
                f"WPQ {self.name}: capacity {self.capacity} exceeded"
            )
        self._addresses.extend(addresses)
        self._payloads.extend(payloads)
        self.pushed_total += len(addresses)

    def _split(self) -> Tuple[List[int], List[T]]:
        """Detach and return the closed-round prefix; keep the open round."""
        cut = self._open_start if self._round_open else len(self._addresses)
        addresses = self._addresses
        payloads = self._payloads
        if cut == len(addresses):
            self._addresses = []
            self._payloads = []
        else:
            self._addresses = addresses[cut:]
            self._payloads = payloads[cut:]
            del addresses[cut:]
            del payloads[cut:]
        self._open_start = 0
        return addresses, payloads

    def drain(self) -> Tuple[List[int], List[T]]:
        """Remove and return all durable (closed-round) entries in FIFO order,
        as ``(addresses, payloads)``.

        Open-round entries stay queued: they are not yet guaranteed and may
        still be discarded by a crash.
        """
        addresses, payloads = self._split()
        self.drained_total += len(addresses)
        return addresses, payloads

    def crash(self) -> Tuple[List[int], List[T]]:
        """Simulate power loss.

        Entries of the open round never got their "end" signal, so ADR does
        not guarantee them: they are discarded.  All closed-round entries are
        flushed by the ADR energy reserve and returned, as ``(addresses,
        payloads)``, so the crash harness can apply them to the NVM image.
        """
        addresses, payloads = self._split()
        self.discarded_total += len(self._addresses)
        self.drained_total += len(addresses)
        self._addresses = []
        self._payloads = []
        self._round_open = False
        return addresses, payloads

    # -- introspection --------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._addresses)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._addresses)

    def __len__(self) -> int:
        return len(self._addresses)

    def __repr__(self) -> str:
        return (
            f"WritePendingQueue({self.name}, {self.occupancy}/{self.capacity}, "
            f"round_open={self._round_open})"
        )
