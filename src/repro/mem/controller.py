"""Multi-channel NVM main memory: functional store + timing model.

:class:`NVMMainMemory` is both the *functional* backing store (a sparse
byte-array image keyed by line address — the "chips") and the *timing* model
(dispatch -> channel banks -> channel bus).  Keeping the two together
means every functional operation is automatically timed and counted, so
traffic figures can never drift from the protocol that produced them.

The timing model is one busy-interval calendar per resource — the shared
front-end dispatch stage, every bank and every data bus — so each stage
serves requests by arrival time and keeps its full per-request
occupancy, whether one access is in flight or a window of them
(:mod:`repro.engine.sched`).  The per-line arithmetic exists once, in
:meth:`NVMMainMemory._issue_lines`.

Address-to-channel mapping is line interleaving, the standard layout for
bandwidth-sharing ORAM systems (Wang et al., HPCA'17, as cited by the
paper).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import NVMTimingConfig
from repro.mem.bank import MAX_BOUNDARIES, reserve_interval
from repro.mem.channel import Channel
from repro.mem.device import DeviceTimingModel
from repro.mem.request import Access, MemoryRequest, RequestKind
from repro.mem.traffic import TrafficMeter


class NVMMainMemory:
    """The off-chip persistent memory system."""

    #: Cycles the controller front-end needs to schedule one command
    #: (address decode, queue arbitration).  This stage is shared by all
    #: channels and is what makes channel scaling sub-linear, as the paper
    #: (citing Wang et al.) observes for the 2->4 channel step.  The value
    #: is calibrated so the 1->2 channel speedup of PS-ORAM matches the
    #: paper's 51.26% (EXPERIMENTS.md, Figure 7).
    DISPATCH_CYCLES = 4

    def __init__(
        self,
        timing: NVMTimingConfig,
        channels: int = 1,
        banks_per_channel: int = 8,
        line_bytes: int = 64,
        track_wear: bool = False,
    ):
        if channels < 1:
            raise ValueError(f"need at least one channel, got {channels}")
        self.device = DeviceTimingModel(timing)
        self.line_bytes = line_bytes
        self.channels: List[Channel] = [
            Channel(i, banks_per_channel) for i in range(channels)
        ]
        self.traffic = TrafficMeter(line_bytes, track_wear=track_wear)
        self.energy_pj = 0.0
        self._dispatch_intervals: List[int] = []
        # Functional image: line address -> bytes. Sparse, so a 4GB
        # configured capacity costs nothing until written.
        self._image: Dict[int, bytes] = {}
        #: Optional hook called with a list of byte addresses after every
        #: functional store: one address for :meth:`store_line`, a whole
        #: burst's written lines (in order) for a write ``issue_path``.
        #: The integrity domain registers here to keep leaf MACs current
        #: without monkey-patching the store methods.
        self.line_observer: Optional[Callable[[List[int]], None]] = None
        #: Optional hook called after every timed line request with the
        #: line's byte address and the completed request — the bus
        #: observer registers here.  It must not issue traffic itself.
        self.request_observer: Optional[
            Callable[[int, MemoryRequest], None]
        ] = None

    # -- functional store -----------------------------------------------------

    def store_line(self, address: int, data: bytes) -> None:
        """Write the functional content of one line (no timing)."""
        self._image[address // self.line_bytes] = bytes(data)
        if self.line_observer is not None:
            self.line_observer([address])

    def load_line(self, address: int) -> Optional[bytes]:
        """Read the functional content of one line (no timing)."""
        return self._image.get(address // self.line_bytes)

    @property
    def blank(self) -> bool:
        """True while the image holds no line: every block reads as zeros."""
        return not self._image

    def written_lines(self, base: int, size_bytes: int) -> List[int]:
        """Byte addresses of all written lines inside [base, base + size).

        Used by crash recovery to walk a region (e.g. the persistent PosMap)
        without scanning the full configured capacity.
        """
        first = base // self.line_bytes
        last = (base + size_bytes - 1) // self.line_bytes
        return [
            line * self.line_bytes
            for line in sorted(self._image)
            if first <= line <= last
        ]

    def snapshot_image(self) -> Dict[int, bytes]:
        """Copy of the full functional image (for crash checkpointing)."""
        return dict(self._image)

    def restore_image(self, image: Dict[int, bytes]) -> None:
        """Replace the functional image (crash-recovery harness)."""
        self._image = dict(image)

    # -- timed access -----------------------------------------------------------

    def issue(
        self,
        address: int,
        access: Access,
        arrival_cycle: int,
        kind: RequestKind = RequestKind.DATA_PATH,
        data: Optional[bytes] = None,
    ) -> MemoryRequest:
        """Issue one timed line access; returns the completed request.

        For writes, ``data`` (if given) updates the functional image.  For
        reads the caller fetches content via :meth:`load_line` — the timing
        and functional layers share the address, so there is no coherence
        issue.
        """
        requests: List[MemoryRequest] = []
        self._issue_lines(
            [address], access, arrival_cycle, kind,
            None if data is None else [data], requests,
        )
        return requests[0]

    def issue_path(
        self,
        addresses: List[int],
        access: Access,
        arrival_cycle: int,
        kind: RequestKind = RequestKind.DATA_PATH,
        datas: Optional[List[Optional[bytes]]] = None,
    ) -> int:
        """Issue a burst of same-kind line accesses; returns the last completion.

        Cycle-, counter-, and energy-identical to calling :meth:`issue` once
        per address in order, without a :class:`MemoryRequest` allocation
        per line.  This is the memory-side half of the path-batched access:
        one call covers a whole ORAM path (or a drainer round's data burst).
        ``datas`` (writes only) carries the functional content per line;
        ``None`` entries are timing-only writes.
        """
        return self._issue_lines(addresses, access, arrival_cycle, kind, datas, None)

    def access_batch(
        self,
        addresses: List[int],
        access: Access,
        arrival_cycle: int,
        kind: RequestKind = RequestKind.DATA_PATH,
    ) -> int:
        """Issue a batch of same-type accesses; returns the last completion cycle.

        The batch is issued back-to-back so channel/bank overlap is
        exploited exactly as a burst path read/write would be.
        """
        return self._issue_lines(addresses, access, arrival_cycle, kind, None, None)

    def _issue_lines(
        self,
        addresses: List[int],
        access: Access,
        arrival_cycle: int,
        kind: RequestKind,
        datas: Optional[List[Optional[bytes]]],
        requests: Optional[List[MemoryRequest]],
    ) -> int:
        """Time every line of a burst through dispatch, bank and bus.

        Each stage is a busy-interval calendar; a line takes the first
        idle slot at or after it is ready (arrival, then dispatch, then
        bank completion).  The tail cases — ready after the last busy
        window, or inside it — are inlined per stage;
        :func:`reserve_interval` runs only for true gap fills.  A
        :class:`MemoryRequest` is built per line only when ``requests``
        collects them or a request observer is attached.
        """
        device = self.device
        line_bytes = self.line_bytes
        channels = self.channels
        num_channels = len(channels)
        num_banks = len(channels[0].bank_intervals)
        dispatch_cycles = self.DISPATCH_CYCLES
        burst_cycles = Channel.BURST_CYCLES
        service_cycles = device.service_cycles(access)
        bank_span = service_cycles + device.min_gap_cycles()
        energy_each = device.energy_pj(access)
        energy = self.energy_pj
        traffic = self.traffic
        request_observer = self.request_observer
        is_write = access is Access.WRITE
        build_requests = requests is not None or request_observer is not None
        dispatch_intervals = self._dispatch_intervals
        # Every dispatch reservation of a burst lands at or after the
        # previous one's end (same arrival, earliest gap first), so the
        # dispatch arrival may ratchet forward: that keeps the tail cases
        # hot instead of searching the calendar again per line.
        ready = arrival_cycle
        finish = arrival_cycle
        write_lines: List[int] = []
        for address in addresses:
            cal = dispatch_intervals
            if not cal or ready > cal[-1]:
                dispatched = ready
                cal.append(ready)
                cal.append(ready + dispatch_cycles)
                if len(cal) > MAX_BOUNDARIES:
                    del cal[1:3]
            elif ready >= cal[-2]:
                dispatched = cal[-1]
                cal[-1] = dispatched + dispatch_cycles
            else:
                dispatched = reserve_interval(cal, ready, dispatch_cycles)
            ready = dispatched + dispatch_cycles
            line = address // line_bytes
            channel = channels[line % num_channels]
            cal = channel.bank_intervals[(line // num_channels) % num_banks]
            if not cal or dispatched > cal[-1]:
                bank_start = dispatched
                cal.append(dispatched)
                cal.append(dispatched + bank_span)
                if len(cal) > MAX_BOUNDARIES:
                    del cal[1:3]
            elif dispatched >= cal[-2]:
                bank_start = cal[-1]
                cal[-1] = bank_start + bank_span
            else:
                bank_start = reserve_interval(cal, dispatched, bank_span)
            bank_done = bank_start + service_cycles
            cal = channel.bus_intervals
            if not cal or bank_done > cal[-1]:
                complete = bank_done + burst_cycles
                cal.append(bank_done)
                cal.append(complete)
                if len(cal) > MAX_BOUNDARIES:
                    del cal[1:3]
            elif bank_done >= cal[-2]:
                complete = cal[-1] + burst_cycles
                cal[-1] = complete
            else:
                complete = reserve_interval(cal, bank_done, burst_cycles) + burst_cycles
            if complete > finish:
                finish = complete
            energy += energy_each
            if is_write:
                write_lines.append(line)
            if build_requests:
                request = MemoryRequest(
                    address=address, access=access, kind=kind, size_bytes=line_bytes
                )
                request.issue_cycle = arrival_cycle
                request.complete_cycle = complete
                if requests is not None:
                    requests.append(request)
                if request_observer is not None:
                    request_observer(address, request)
        self.energy_pj = energy
        traffic.record_burst(access, kind, len(addresses), write_lines if is_write else None)
        if is_write and datas is not None:
            self._store_burst(addresses, write_lines, datas)
        return finish

    def _store_burst(
        self,
        addresses: List[int],
        lines: List[int],
        datas: List[Optional[bytes]],
    ) -> None:
        """The functional half of a write burst: DCW cell flips, the image
        update and one ``line_observer`` call, after the timing loop.

        Bit-identical to storing line by line in burst order.  The flips of
        the whole burst are one big-int XOR and popcount over the joined
        old and new contents; an absent old line counts as zeros (every
        set bit of the new content flips).  A line written twice in the
        burst, or an old line whose length differs from the new one, takes
        the exact per-line path instead.
        """
        if None in datas:
            kept = [i for i, data in enumerate(datas) if data is not None]
            if not kept:
                return
            addresses = [addresses[i] for i in kept]
            lines = [lines[i] for i in kept]
            datas = [datas[i] for i in kept]
        image = self._image
        traffic = self.traffic
        olds = list(map(image.get, lines))
        if None in olds:
            olds = [
                bytes(len(datas[i])) if old is None else old
                for i, old in enumerate(olds)
            ]
        if len(set(lines)) == len(lines) and list(map(len, olds)) == list(map(len, datas)):
            new = b"".join(datas)
            traffic.bits_written += 8 * len(new)
            traffic.bits_flipped += (
                int.from_bytes(b"".join(olds), "little")
                ^ int.from_bytes(new, "little")
            ).bit_count()
            image.update(zip(lines, map(bytes, datas)))
        else:
            record_cell_flips = traffic.record_cell_flips
            for line, data in zip(lines, datas):
                record_cell_flips(image.get(line) or b"", data)
                image[line] = bytes(data)
        if self.line_observer is not None:
            self.line_observer(addresses)

    def next_free_cycles(self) -> List[int]:
        """Per-channel earliest-issue cycles (index-aligned with ``channels``).

        The last boundary of a bus calendar is its latest busy end.  The
        scheduler's hazard/overlap logic reads these to decide how far a
        younger access's fetch can slide under an older write-back.
        """
        return [
            channel.bus_intervals[-1] if channel.bus_intervals else 0
            for channel in self.channels
        ]

    # -- maintenance ---------------------------------------------------------

    def reset_timing(self) -> None:
        """Clear timing/traffic state, keep the functional image."""
        for channel in self.channels:
            channel.reset()
        self.traffic.reset()
        self.energy_pj = 0.0
        self._dispatch_intervals = []

    @property
    def num_channels(self) -> int:
        return len(self.channels)
