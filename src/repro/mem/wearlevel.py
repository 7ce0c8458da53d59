"""Start-Gap wear leveling (Qureshi et al., MICRO'09) for the ORAM region.

The lifetime bench (`bench_ablation_lifetime.py`) shows what every tree
ORAM does to write-limited NVM: the root bucket is rewritten on *every*
access, concentrating wear on a handful of lines (max/mean wear ~75x at
laptop scale, ~2**23 x at paper scale).  Start-Gap is the standard
algebraic wear-leveler: ``N`` logical lines rotate through ``N + 1``
physical slots, with the empty "gap" slot migrating one position every
``gap_period`` writes.  Wear spreads over the whole region at a cost of
one extra line read + write per period.

Mapping (the MICRO'09 formulation): logical line ``i`` lives at
``addr = (i + start) mod N``; physical slot = ``addr`` if ``addr < gap``
else ``addr + 1``.  The gap walks downward; each full sweep increments
``start``, so over time every logical line visits every physical slot.

:class:`StartGapRemapper` registers as the memory's ``address_translator``
and ``request_observer`` hooks — controllers above it are oblivious to the
remapping (including, pleasingly, the ORAM controller: wear leveling below
ORAM is sound because ORAM's addresses are already data-independent).
"""

from __future__ import annotations

from repro.crypto.prf import Prf
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, MemoryRequest, RequestKind
from repro.util.stats import StatSet


class FeistelPermutation:
    """A fixed keyed permutation of [0, n) (static address randomization).

    Start-Gap rotates the address space by one line per sweep; against a
    *clustered* hotspot (an ORAM root bucket is Z adjacent lines, all
    written every access) the rotation only shifts which hot line occupies
    a physical slot — the neighbourhood stays hot.  The published designs
    (Start-Gap with randomization, Security Refresh) therefore compose the
    rotation with a static random invertible mapping, which scatters the
    cluster so each rotation step lands every hot line in a cold area.

    Implemented as a 4-round Feistel network over ``ceil(log2 n)`` bits
    with cycle-walking for non-power-of-two domains.
    """

    ROUNDS = 4

    def __init__(self, n: int, key: bytes = b"startgap-randomize"):
        if n < 1:
            raise ValueError("domain must be non-empty")
        self.n = n
        bits = max(2, (n - 1).bit_length())
        self._half_bits = (bits + 1) // 2
        self._mask = (1 << self._half_bits) - 1
        self._domain = 1 << (2 * self._half_bits)
        prf = Prf(key, digest_size=8)
        self._round_keys = [
            prf.evaluate(b"round" + bytes([r])) for r in range(self.ROUNDS)
        ]
        self._prf = prf

    def _round(self, value: int, key: bytes) -> int:
        digest = self._prf.evaluate(key + value.to_bytes(8, "little"))
        return int.from_bytes(digest, "little") & self._mask

    def _permute_once(self, value: int) -> int:
        left = value >> self._half_bits
        right = value & self._mask
        for key in self._round_keys:
            left, right = right, left ^ self._round(right, key)
        return (left << self._half_bits) | right

    def apply(self, value: int) -> int:
        """Permutation of [0, n): Feistel with cycle-walking."""
        if not 0 <= value < self.n:
            raise ValueError(f"{value} outside [0, {self.n})")
        out = self._permute_once(value)
        while out >= self.n:
            out = self._permute_once(out)
        return out


class StartGapRemapper:
    """Start-Gap (+ optional static randomization) over one NVM region."""

    def __init__(
        self,
        memory: NVMMainMemory,
        base: int,
        num_lines: int,
        gap_period: int = 100,
        randomize: bool = True,
    ):
        if num_lines < 2:
            raise ValueError(f"need at least 2 lines to level, got {num_lines}")
        if gap_period < 1:
            raise ValueError(f"gap period must be >= 1, got {gap_period}")
        if base % memory.line_bytes != 0:
            raise ValueError("region base must be line-aligned")
        if memory.address_translator is not None or memory.request_observer is not None:
            raise ValueError("memory already has a translator or request observer")
        if memory.line_observer is not None:
            # The integrity domain observes physical addresses but reloads
            # them through the translator; see IntegrityDomain.install.
            raise ValueError(
                "memory has a line observer (an integrity domain); wear "
                "leveling below it would make every moved line read as tampered"
            )
        self.memory = memory
        self.base = base
        self.num_lines = num_lines
        self.gap_period = gap_period
        self.start = 0
        self.gap = num_lines  # physical slots 0..num_lines; gap starts last
        self._writes_since_move = 0
        self._randomizer = FeistelPermutation(num_lines) if randomize else None
        self.stats = StatSet("startgap")
        # Set while the gap walk issues its own (already physical) traffic.
        self._moving = False
        memory.address_translator = self._translate
        memory.request_observer = self._count_write

    # -- mapping --------------------------------------------------------------

    def _in_region(self, address: int) -> bool:
        return self.base <= address < self.base + self.num_lines * self.memory.line_bytes

    def physical_line(self, logical_line: int) -> int:
        """Randomize-then-rotate map: logical line -> physical slot."""
        if self._randomizer is not None:
            logical_line = self._randomizer.apply(logical_line)
        addr = (logical_line + self.start) % self.num_lines
        return addr if addr < self.gap else addr + 1

    def _translate(self, address: int) -> int:
        if self._moving or not self._in_region(address):
            return address
        line_bytes = self.memory.line_bytes
        logical = (address - self.base) // line_bytes
        offset = address % line_bytes
        return self.base + self.physical_line(logical) * line_bytes + offset

    def _count_write(self, address: int, request: MemoryRequest) -> None:
        """Request hook: every ``gap_period`` region writes, walk the gap."""
        if self._moving or request.access is not Access.WRITE:
            return
        if self._in_region(address):
            self._writes_since_move += 1
            if self._writes_since_move >= self.gap_period:
                self._writes_since_move = 0
                complete = request.complete_cycle
                self._move_gap(complete if complete is not None else request.issue_cycle)

    # -- the gap walk ----------------------------------------------------------------

    def _move_gap(self, cycle: int) -> None:
        """One Start-Gap step: a neighbour's content slides into the gap.

        For ``gap > 0`` the neighbour is slot ``gap - 1`` and the gap walks
        down one position.  At ``gap == 0`` the sweep wraps: slot ``N``'s
        content slides into slot 0 and ``start`` rotates — the algebra of
        :meth:`physical_line` requires this copy (the line mapped to slot
        ``N`` before the wrap is mapped to slot 0 after it).
        """
        line_bytes = self.memory.line_bytes
        if self.gap == 0:
            source_physical = self.num_lines
            dest_physical = 0
            self.gap = self.num_lines
            self.start = (self.start + 1) % self.num_lines
            self.stats.counter("sweeps").add()
        else:
            source_physical = self.gap - 1
            dest_physical = self.gap
            self.gap -= 1
        source_address = self.base + source_physical * line_bytes
        dest_address = self.base + dest_physical * line_bytes
        memory = self.memory
        self._moving = True
        try:
            content = memory.load_line(source_address)
            # One extra read + write of real traffic: the leveling cost.
            memory.issue(source_address, Access.READ, cycle, RequestKind.PLAIN)
            memory.issue(dest_address, Access.WRITE, cycle, RequestKind.PLAIN)
            if content is not None:
                memory.store_line(dest_address, content)
            else:
                # The source held nothing; the stale content of the new
                # gap's slot must not shadow the (empty) line now mapped here.
                memory._image.pop(dest_address // line_bytes, None)
        finally:
            self._moving = False
        self.stats.counter("gap_moves").add()

    # -- teardown -------------------------------------------------------------------

    def detach(self) -> None:
        """Stop remapping (for tests; real hardware never detaches)."""
        self.memory.address_translator = None
        self.memory.request_observer = None


def attach_wear_leveling(controller, gap_period: int = 100) -> StartGapRemapper:
    """Level the controller's ORAM tree region (the wear hotspot)."""
    region = controller.tree.region if hasattr(controller, "tree") else None
    if region is None:
        raise TypeError("controller has no tree region to level")
    num_lines = region.size_bytes // controller.memory.line_bytes
    return StartGapRemapper(
        controller.memory, base=region.base, num_lines=num_lines,
        gap_period=gap_period,
    )
