"""Memory traces.

A trace is a sequence of :class:`MemoryOp` records: each carries the number
of non-memory instructions executed since the previous memory reference,
the byte address touched, and whether it is a store.  This is the
information content of a gem5/SimPoint memory trace, which is all the
evaluation consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import TraceFormatError


@dataclass(frozen=True)
class MemoryOp:
    """One memory reference in a trace."""

    gap: int  # non-memory instructions since the previous reference
    address: int  # byte address
    is_write: bool

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise TraceFormatError(f"negative instruction gap {self.gap}")
        if self.address < 0:
            raise TraceFormatError(f"negative address {self.address}")


class Trace:
    """An in-memory workload trace."""

    def __init__(self, name: str, ops: Optional[List[MemoryOp]] = None):
        self.name = name
        self.ops: List[MemoryOp] = ops if ops is not None else []

    def append(self, gap: int, address: int, is_write: bool) -> None:
        self.ops.append(MemoryOp(gap, address, is_write))

    @property
    def memory_references(self) -> int:
        return len(self.ops)

    @property
    def instructions(self) -> int:
        """Total instructions: gaps plus one per memory reference."""
        return sum(op.gap for op in self.ops) + len(self.ops)

    def __iter__(self) -> Iterator[MemoryOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)
