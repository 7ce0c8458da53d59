"""The drainer: atomic dual-WPQ eviction rounds (paper Section 4.1/4.2.2).

The drainer sits between the encryption circuit and the two write-pending
queues inside the ADR persistence domain.  One eviction round is:

* **start** — both WPQs open a round (step 5-B);
* the encrypted eviction blocks are pushed into the *data-block WPQ* and
  the dirty PosMap entries into the *PosMap WPQ*;
* **end** — both WPQs close the round; from this instant ADR guarantees
  everything pushed reaches the NVM even through a power cut (step 5-C);
* **flush** — the queues drain to the NVM as timed line writes.

Crash atomicity falls out of the WPQ round semantics: a crash before "end"
discards the whole round (the NVM keeps the pre-eviction path and PosMap),
a crash after "end" completes it.  There is no window in which data and
metadata can part ways — the property Section 3.2 demands.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, RequestKind
from repro.mem.wpq import WritePendingQueue
from repro.util.stats import LazyCounter, StatSet

#: Payload of a PosMap WPQ entry: (logical address, new path id).
PosMapPayload = Tuple[int, int]


class Drainer:
    """Coordinates the data-block WPQ and the PosMap WPQ."""

    def __init__(
        self,
        memory: NVMMainMemory,
        data_capacity: int,
        posmap_capacity: int,
        apply_posmap_entry: Callable[[int, int], int],
        version_line: Optional[int] = None,
        version_provider: Optional[Callable[[], int]] = None,
    ):
        """``apply_posmap_entry(address, path_id) -> line_address`` commits
        one PosMap entry to the functional NVM image and returns the line
        written (the timed write targets that line).

        ``version_line``/``version_provider``: every committed round also
        records the controller's block-version counter in a scratch NVM
        line (it rides the round's metadata, no extra timed write).  After
        a crash, recovery restores the counter from this line so freshly
        written blocks can never be out-versioned by pre-crash ghosts.
        """
        self.memory = memory
        # The two queues are the whole ADR persistence domain: on a power
        # cut their closed rounds reach the NVM, everything else is lost.
        self.data_wpq: WritePendingQueue[bytes] = WritePendingQueue("data", data_capacity)
        self.posmap_wpq: WritePendingQueue[PosMapPayload] = WritePendingQueue(
            "posmap", posmap_capacity
        )
        self._apply_posmap_entry = apply_posmap_entry
        self._version_line = version_line
        self._version_provider = version_provider
        self.stats = StatSet("drainer")
        # Bound once: pushes run every eviction round.
        self._c_rounds_started = LazyCounter(self.stats, "rounds_started")
        self._c_rounds_committed = LazyCounter(self.stats, "rounds_committed")
        self._c_blocks_pushed = LazyCounter(self.stats, "blocks_pushed")
        self._c_entries_pushed = LazyCounter(self.stats, "entries_pushed")

    def _record_version(self) -> None:
        if self._version_line is None or self._version_provider is None:
            return
        value = int(self._version_provider())
        self.memory.store_line(self._version_line, value.to_bytes(8, "little"))

    # -- round control -------------------------------------------------------

    def start(self) -> None:
        """The drainer's "start" signal: both WPQs open the same round."""
        self.data_wpq.begin_round()
        self.posmap_wpq.begin_round()
        self._c_rounds_started.add()

    def end(self) -> None:
        """The drainer's "end" signal: the round becomes durable."""
        self.data_wpq.end_round()
        self.posmap_wpq.end_round()
        self._c_rounds_committed.add()

    # -- pushes ---------------------------------------------------------------

    def push_blocks(self, line_addresses: Sequence[int], wires: Sequence[bytes]) -> None:
        """Queue one round's encrypted block writes, columnar and in order."""
        self.data_wpq.push_batch(line_addresses, wires)
        if line_addresses:
            self._c_blocks_pushed.add(len(line_addresses))

    def push_posmap_entries(
        self, line_addresses: Sequence[int], entries: Sequence[PosMapPayload]
    ) -> None:
        """Queue one round's dirty PosMap entries ``(address, path_id)``."""
        self.posmap_wpq.push_batch(line_addresses, entries)
        if line_addresses:
            self._c_entries_pushed.add(len(line_addresses))

    # -- flush ------------------------------------------------------------------

    def flush(self, start_mem_cycle: int, posmap_kind: RequestKind = RequestKind.PERSIST) -> int:
        """Drain both WPQs to the NVM as timed writes.

        Returns the memory cycle at which the last write completes.  Data
        blocks go to the ORAM tree (DATA_PATH writes, same addresses the
        baseline would produce) as one burst; PosMap entries go to the
        PosMap region as one non-coalesced line write each (the paper's
        persistency model).
        """
        self._record_version()
        finish = start_mem_cycle
        lines, wires = self.data_wpq.drain()
        if lines:
            finish = self.memory.issue_path(
                lines, Access.WRITE, start_mem_cycle, RequestKind.DATA_PATH,
                datas=wires,
            )
        entry_lines, entries = self.posmap_wpq.drain()
        if entry_lines:
            for address, path_id in entries:
                if address >= 0:
                    self._apply_posmap_entry(address, path_id)
                # address < 0: a padding entry (Naive-PS-ORAM writes one
                # line per path slot regardless of content) — timed only.
            entry_finish = self.memory.issue_path(
                entry_lines, Access.WRITE, start_mem_cycle, posmap_kind,
            )
            if entry_finish > finish:
                finish = entry_finish
        return finish

    # -- crash -------------------------------------------------------------------

    def crash_flush(self) -> Tuple[int, int]:
        """Power loss: ADR completes durable rounds, discards open ones.

        Applies surviving entries to the functional NVM image (untimed —
        the machine is off; ADR's residual energy does this).  Returns
        ``(blocks_applied, entries_applied)``.
        """
        self._record_version()
        lines, wires = self.data_wpq.crash()
        _, entries = self.posmap_wpq.crash()
        for line_address, wire in zip(lines, wires):
            self.memory.store_line(line_address, wire)
        for address, path_id in entries:
            if address >= 0:
                self._apply_posmap_entry(address, path_id)
        self.stats.counter("crash_blocks_applied").add(len(lines))
        self.stats.counter("crash_entries_applied").add(len(entries))
        return len(lines), len(entries)
