"""Multi-channel NVM main memory: functional store + timing model.

:class:`NVMMainMemory` is both the *functional* backing store (a sparse
byte-array image keyed by line address — the "chips") and the *timing* model
(channels -> banks).  Keeping the two together means every functional
operation is automatically timed and counted, so traffic figures can never
drift from the protocol that produced them.

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
            Channel(i, self.device, banks_per_channel) for i in range(channels)
        ]
        self.traffic = TrafficMeter(line_bytes, track_wear=track_wear)
        self.energy_pj = 0.0
        self._dispatch_free_at = 0
        self._dispatch_intervals: Optional[List[int]] = None
        self._overlap = False
        # Functional image: line address -> bytes. Sparse, so a 4GB
        # configured capacity costs nothing until written.
        self._image: Dict[int, bytes] = {}
        #: Optional hook called with the byte address after every
        #: functional line store (store_line and the issue_path write
        #: fast path alike).  The integrity domain registers here to keep
        #: leaf MACs current without monkey-patching the store methods.
        self.line_observer: Optional[Callable[[int], None]] = None
        #: Optional address-translation layer below the controller
        #: (start-gap wear leveling): maps the caller's line address to
        #: the physical one in :meth:`issue`, :meth:`issue_path`,
        #: :meth:`store_line` and :meth:`load_line`.
        self.address_translator: Optional[Callable[[int], int]] = None
        #: Optional hook called after every timed line request with the
        #: caller's address and the completed request (whose ``address``
        #: is the physical one) — the bus observer and the wear leveler's
        #: write counter register here.
        self.request_observer: Optional[
            Callable[[int, MemoryRequest], None]
        ] = None

    # -- functional store -----------------------------------------------------

    def store_line(self, address: int, data: bytes) -> None:
        """Write the functional content of one line (no timing)."""
        if self.address_translator is not None:
            address = self.address_translator(address)
        self._image[address // self.line_bytes] = bytes(data)
        if self.line_observer is not None:
            self.line_observer(address)

    def load_line(self, address: int) -> Optional[bytes]:
        """Read the functional content of one line (no timing)."""
        if self.address_translator is not None:
            address = self.address_translator(address)
        return self._image.get(address // self.line_bytes)

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

    def enable_overlap(self) -> None:
        """Switch dispatch, banks and buses to interval (gap-fill) scheduling.

        Idempotent.  Not cycle-identical to the watermarks even for serial
        traffic: bus arrivals follow bank completion order, not call
        order, and the calendar fills bus gaps the watermark skips (see
        :mod:`repro.mem.channel`), on top of the idle gaps the window
        scheduler's rewound arrivals exploit.  Every stage keeps its full
        occupancy (one command per ``DISPATCH_CYCLES``, one burst per bus
        slot, one request per bank), so contention still serializes —
        just by arrival time rather than by Python call order.
        """
        self._overlap = True
        if self._dispatch_intervals is None:
            self._dispatch_intervals = (
                [0, self._dispatch_free_at] if self._dispatch_free_at else []
            )
        for channel in self.channels:
            channel.enable_overlap()

    def channel_for(self, address: int) -> Channel:
        """Line-interleaved channel mapping (line index modulo channels)."""
        line = address // self.line_bytes
        return self.channels[line % len(self.channels)]

    def local_line(self, address: int) -> int:
        """Channel-local line index for bank striping."""
        return (address // self.line_bytes) // len(self.channels)

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
        logical = address
        if self.address_translator is not None:
            address = self.address_translator(address)
        request = MemoryRequest(
            address=address, access=access, kind=kind, size_bytes=self.line_bytes
        )
        request.issue_cycle = arrival_cycle
        # Front-end dispatch is a shared stage across channels.
        if self._overlap:
            dispatched = reserve_interval(
                self._dispatch_intervals, arrival_cycle, self.DISPATCH_CYCLES
            )
            if dispatched + self.DISPATCH_CYCLES > self._dispatch_free_at:
                self._dispatch_free_at = dispatched + self.DISPATCH_CYCLES
        else:
            dispatched = max(arrival_cycle, self._dispatch_free_at)
            self._dispatch_free_at = dispatched + self.DISPATCH_CYCLES
        line = address // self.line_bytes
        channel = self.channels[line % len(self.channels)]
        request.complete_cycle = channel.service(
            request, dispatched, line // len(self.channels)
        )
        self.traffic.record(request)
        self.energy_pj += self.device.energy_pj(access)
        if access is Access.WRITE and data is not None:
            old = self._image.get(line)
            self.traffic.record_cell_flips(old or b"", data)
            self._image[line] = bytes(data)
            if self.line_observer is not None:
                self.line_observer(address)
        if self.request_observer is not None:
            self.request_observer(logical, request)
        return request

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
        per address in order — the dispatch/bank/bus watermark math is the
        same, just without a :class:`MemoryRequest` allocation per line.
        This is the memory-side half of the path-batched access: one call
        covers a whole ORAM path (or a drainer round's data burst).
        ``datas`` (writes only) carries the functional content per line;
        ``None`` entries are timing-only writes.
        """
        if self.address_translator is not None or self.request_observer is not None:
            # A translation layer or request observer is attached: route
            # every line through issue() so the batched path sees the same
            # physical remapping and reports every request.
            finish = arrival_cycle
            for i, address in enumerate(addresses):
                request = self.issue(
                    address, access, arrival_cycle, kind,
                    data=None if datas is None else datas[i],
                )
                complete = request.complete_cycle
                if complete is not None and complete > finish:
                    finish = complete
            return finish
        device = self.device
        line_bytes = self.line_bytes
        channels = self.channels
        num_channels = len(channels)
        dispatch_free = self._dispatch_free_at
        dispatch_cycles = self.DISPATCH_CYCLES
        burst_cycles = Channel.BURST_CYCLES
        service_cycles = device.service_cycles(access)
        gap_cycles = device.min_gap_cycles()
        energy_each = device.energy_pj(access)
        energy_acc = self.energy_pj
        traffic = self.traffic
        image = self._image
        line_observer = self.line_observer
        is_write = access is Access.WRITE
        overlap = self._overlap
        dispatch_intervals = self._dispatch_intervals
        bank_span = service_cycles + gap_cycles
        # Within one burst every dispatch reservation lands at or after the
        # previous one (same arrival, earliest-gap-first), so the arrival
        # floor may ratchet forward — that keeps the O(1) tail-append fast
        # path hot instead of re-scanning the calendar per line.
        dispatch_arrival = arrival_cycle
        finish = arrival_cycle
        write_lines: List[int] = []
        for i, address in enumerate(addresses):
            if overlap:
                # Inline tail-append fast path for the three calendars
                # (dispatch, bank, bus); reserve_interval only on genuine
                # mid-calendar (gap-fill) insertions.  Same math as
                # Bank.service_span / Channel.reserve_burst.
                if not dispatch_intervals or dispatch_arrival >= dispatch_intervals[-1]:
                    dispatched = dispatch_arrival
                    if dispatch_intervals and dispatch_intervals[-1] == dispatched:
                        dispatch_intervals[-1] = dispatched + dispatch_cycles
                    else:
                        dispatch_intervals.append(dispatched)
                        dispatch_intervals.append(dispatched + dispatch_cycles)
                        if len(dispatch_intervals) > MAX_BOUNDARIES:
                            del dispatch_intervals[1:3]
                else:
                    dispatched = reserve_interval(
                        dispatch_intervals, dispatch_arrival, dispatch_cycles
                    )
                dispatch_arrival = dispatched + dispatch_cycles
                if dispatch_arrival > dispatch_free:
                    dispatch_free = dispatch_arrival
            else:
                dispatched = arrival_cycle if arrival_cycle >= dispatch_free else dispatch_free
                dispatch_free = dispatched + dispatch_cycles
            line = address // line_bytes
            channel = channels[line % num_channels]
            local_line = line // num_channels
            bank = channel.banks[local_line % len(channel.banks)]
            if overlap:
                bank_intervals = bank.intervals
                if not bank_intervals or dispatched >= bank_intervals[-1]:
                    bank_start = dispatched
                    if bank_intervals and bank_intervals[-1] == bank_start:
                        bank_intervals[-1] = bank_start + bank_span
                    else:
                        bank_intervals.append(bank_start)
                        bank_intervals.append(bank_start + bank_span)
                        if len(bank_intervals) > MAX_BOUNDARIES:
                            del bank_intervals[1:3]
                else:
                    bank_start = reserve_interval(bank_intervals, dispatched, bank_span)
                if bank_start + bank_span > bank.busy_until:
                    bank.busy_until = bank_start + bank_span
                bank.serviced += 1
                bank_done = bank_start + service_cycles
                bus_intervals = channel.bus_intervals
                if not bus_intervals or bank_done >= bus_intervals[-1]:
                    burst_start = bank_done
                    if bus_intervals and bus_intervals[-1] == burst_start:
                        bus_intervals[-1] = burst_start + burst_cycles
                    else:
                        bus_intervals.append(burst_start)
                        bus_intervals.append(burst_start + burst_cycles)
                        if len(bus_intervals) > MAX_BOUNDARIES:
                            del bus_intervals[1:3]
                else:
                    burst_start = reserve_interval(bus_intervals, bank_done, burst_cycles)
                complete = burst_start + burst_cycles
                if complete > channel.bus_free_at:
                    channel.bus_free_at = complete
                channel.serviced += 1
            else:
                bank_start = dispatched if dispatched >= bank.busy_until else bank.busy_until
                bank_done = bank_start + service_cycles
                bank.busy_until = bank_done + gap_cycles
                bank.serviced += 1
                burst_start = bank_done if bank_done >= channel.bus_free_at else channel.bus_free_at
                complete = burst_start + burst_cycles
                channel.bus_free_at = complete
                channel.serviced += 1
            if complete > finish:
                finish = complete
            energy_acc += energy_each
            if is_write:
                write_lines.append(line)
                if datas is not None:
                    data = datas[i]
                    if data is not None:
                        traffic.record_cell_flips(image.get(line) or b"", data)
                        image[line] = bytes(data)
                        if line_observer is not None:
                            line_observer(address)
        self._dispatch_free_at = dispatch_free
        self.energy_pj = energy_acc
        traffic.record_burst(access, kind, len(addresses), write_lines if is_write else None)
        return finish

    def next_free_cycles(self) -> List[int]:
        """Per-channel earliest-issue cycles (index-aligned with ``channels``).

        The scheduler's hazard/overlap logic reads these to decide how far
        a younger access's fetch can slide under an older write-back.
        """
        return [channel.bus_free_at for channel in self.channels]

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
        finish = arrival_cycle
        for address in addresses:
            request = self.issue(address, access, arrival_cycle, kind)
            complete = request.complete_cycle
            if complete is not None and complete > finish:
                finish = complete
        return finish

    # -- maintenance ---------------------------------------------------------

    def reset_timing(self) -> None:
        """Clear timing/traffic state, keep the functional image."""
        for channel in self.channels:
            channel.reset()
        self.traffic.reset()
        self.energy_pj = 0.0
        self._dispatch_free_at = 0
        if self._dispatch_intervals is not None:
            self._dispatch_intervals = []

    @property
    def num_channels(self) -> int:
        return len(self.channels)
