"""Traffic and wear accounting for the NVM system.

Reproducing Figure 6 requires exact read/write counts broken down by what
the access was for (data path, PosMap, persistence drain, on-chip NVM).
NVM lifetime is proportional to writes-per-cell, so the meter also keeps a
per-line write histogram from which a simple wear-levelling-free lifetime
estimate is derived.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.mem.request import Access, MemoryRequest, RequestKind


class TrafficMeter:
    """Counts reads/writes by :class:`RequestKind` plus per-line wear."""

    def __init__(self, line_bytes: int = 64, track_wear: bool = False):
        if line_bytes <= 0:
            raise ValueError(f"line size must be positive, got {line_bytes}")
        self.line_bytes = line_bytes
        self.track_wear = track_wear
        self.reads: Dict[RequestKind, int] = defaultdict(int)
        self.writes: Dict[RequestKind, int] = defaultdict(int)
        self.read_bytes = 0
        self.write_bytes = 0
        self._line_writes: Dict[int, int] = defaultdict(int)
        # Data-comparison-write accounting (DEUCE/DCW, the paper's [69]):
        # cells flip only where the new content differs from the old.
        self.bits_written = 0
        self.bits_flipped = 0

    def record_cell_flips(self, old: bytes, new: bytes) -> None:
        """Account the bit flips of one line write (DCW model).

        PCM cells are written only where bits differ; plain data flips few
        bits, counter-mode re-encryption flips ~half — the write-energy
        tension the write-efficient-encryption literature addresses.
        """
        self.bits_written += 8 * len(new)
        if not old:
            self.bits_flipped += int.from_bytes(new, "little").bit_count()
            return
        if len(old) > len(new):
            # Bytes beyond the new content are not rewritten; only the
            # overlapping prefix can flip cells.
            old = old[: len(new)]
        # A single big-int XOR + popcount; bytes of `new` past the end of
        # `old` XOR against zero, counting their own set bits.
        self.bits_flipped += (
            int.from_bytes(old, "little") ^ int.from_bytes(new, "little")
        ).bit_count()

    @property
    def flip_rate(self) -> float:
        """Fraction of written bits that actually flipped cells."""
        return self.bits_flipped / self.bits_written if self.bits_written else 0.0

    def record(self, request: MemoryRequest) -> None:
        """Account one serviced request."""
        if request.access is Access.READ:
            self.reads[request.kind] += 1
            self.read_bytes += request.size_bytes
        else:
            self.writes[request.kind] += 1
            self.write_bytes += request.size_bytes
            if self.track_wear:
                self._line_writes[request.address // self.line_bytes] += 1

    def record_burst(self, access: Access, kind: RequestKind, count: int, write_lines=None) -> None:
        """Account ``count`` same-kind line requests in one call.

        Counter-identical to ``count`` calls to :meth:`record` (all the
        affected tallies are integers, so aggregation order is immaterial).
        ``write_lines`` supplies the line indices for wear tracking on
        write bursts.
        """
        nbytes = count * self.line_bytes
        if access is Access.READ:
            self.reads[kind] += count
            self.read_bytes += nbytes
        else:
            self.writes[kind] += count
            self.write_bytes += nbytes
            if self.track_wear and write_lines is not None:
                line_writes = self._line_writes
                for line in write_lines:
                    line_writes[line] += 1

    @property
    def total_reads(self) -> int:
        return sum(self.reads.values())

    @property
    def total_writes(self) -> int:
        return sum(self.writes.values())

    @property
    def total_accesses(self) -> int:
        return self.total_reads + self.total_writes

    def reads_of(self, kind: RequestKind) -> int:
        return self.reads.get(kind, 0)

    def writes_of(self, kind: RequestKind) -> int:
        return self.writes.get(kind, 0)

    def max_line_writes(self) -> int:
        """Writes to the most-written line (the wear hot spot)."""
        return max(self._line_writes.values()) if self._line_writes else 0

    def mean_line_writes(self) -> float:
        """Mean writes over lines that were written at least once."""
        if not self._line_writes:
            return 0.0
        return sum(self._line_writes.values()) / len(self._line_writes)

    def wear_imbalance(self) -> float:
        """max/mean line-write ratio; 1.0 is perfectly even wear."""
        mean = self.mean_line_writes()
        return self.max_line_writes() / mean if mean > 0 else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Flatten to a plain dict for result records."""
        out: Dict[str, float] = {
            "reads.total": self.total_reads,
            "writes.total": self.total_writes,
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
        }
        for kind, value in self.reads.items():
            out[f"reads.{kind.value}"] = value
        for kind, value in self.writes.items():
            out[f"writes.{kind.value}"] = value
        if self.track_wear:
            out["wear.max_line_writes"] = self.max_line_writes()
            out["wear.imbalance"] = self.wear_imbalance()
        return out

    def reset(self) -> None:
        self.reads.clear()
        self.writes.clear()
        self.read_bytes = 0
        self.write_bytes = 0
        self._line_writes.clear()
        self.bits_written = 0
        self.bits_flipped = 0
