"""Multi-program co-execution on a shared NVM memory system.

The paper's multi-channel discussion leans on Wang et al.'s HPCA'17 work on
Path ORAM *bandwidth sharing* in server settings; this module provides the
substrate to study it: several controllers (each its own ORAM instance,
stash and PosMap) time-share one :class:`NVMMainMemory`, so their path
accesses contend on real channels and banks.

Address-space isolation is by construction: each co-runner's regions are
laid out at a distinct base offset.  Their layouts are identical, so the
offset is one built controller's exact persistent extent (which, for the
recursive variants, reaches past the flat layout into the posmap tree's
own scratch lines and the intent log), rounded to a line.  Timing
interacts through the shared memory model only — which is the effect
under study.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import SystemConfig
from repro.core.variants import build_variant
from repro.integrity.domain import exact_extent
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, MemoryRequest, RequestKind
from repro.util.stats import StatSet


class _OffsetMemory:
    """A view of a shared memory with every address shifted by a base.

    Duck-types the :class:`NVMMainMemory` surface the controllers use.
    """

    def __init__(self, shared: NVMMainMemory, offset: int):
        self.shared = shared
        self.offset = offset
        self.traffic = shared.traffic  # shared meter; per-runner below
        self.own_traffic = StatSet(f"offset-{offset:#x}")

    @property
    def line_bytes(self) -> int:
        return self.shared.line_bytes

    def issue(
        self,
        address: int,
        access: Access,
        arrival_cycle: int,
        kind: RequestKind = RequestKind.DATA_PATH,
        data: Optional[bytes] = None,
    ) -> MemoryRequest:
        if access is Access.READ:
            self.own_traffic.counter("reads").add()
        else:
            self.own_traffic.counter("writes").add()
        return self.shared.issue(
            address + self.offset, access, arrival_cycle, kind, data
        )

    def issue_path(
        self,
        addresses,
        access: Access,
        arrival_cycle: int,
        kind: RequestKind = RequestKind.DATA_PATH,
        datas=None,
    ) -> int:
        if access is Access.READ:
            self.own_traffic.counter("reads").add(len(addresses))
        else:
            self.own_traffic.counter("writes").add(len(addresses))
        offset = self.offset
        return self.shared.issue_path(
            [address + offset for address in addresses],
            access, arrival_cycle, kind, datas,
        )

    def store_line(self, address: int, data: bytes) -> None:
        self.shared.store_line(address + self.offset, data)

    def load_line(self, address: int):
        return self.shared.load_line(address + self.offset)

    def written_lines(self, base: int, size_bytes: int):
        return [
            a - self.offset
            for a in self.shared.written_lines(base + self.offset, size_bytes)
        ]

    def snapshot_image(self):
        return self.shared.snapshot_image()

    def restore_image(self, image) -> None:
        self.shared.restore_image(image)

    def reset_timing(self) -> None:
        self.shared.reset_timing()


class CoRunner:
    """N independent ORAM programs on one shared memory system."""

    def __init__(
        self,
        variant: str,
        config: SystemConfig,
        programs: int = 2,
        key: bytes = b"repro-psoram-key",
    ):
        if programs < 1:
            raise ValueError("need at least one program")
        config.validate()
        self.config = config
        self.shared_memory = NVMMainMemory(
            config.nvm,
            channels=config.channels,
            banks_per_channel=config.banks_per_channel,
            line_bytes=config.oram.block_bytes,
        )
        # Each runner's address space starts above the previous one's:
        # runner 0 is built first, and its exact extent sets the spacing.
        self.controllers = []
        span = 0
        for index in range(programs):
            view = _OffsetMemory(self.shared_memory, index * span)
            controller = build_variant(
                variant, config, memory=view, key=key + bytes([index])
            )
            self.controllers.append(controller)
            if index == 0:
                line = config.oram.block_bytes
                span = (exact_extent(controller) // line + 64) * line

    def run_interleaved(
        self,
        ops_per_program: int,
        op: Callable,
    ) -> List[int]:
        """Round-robin by simulated time: always advance the laggard.

        ``op(controller, program_index, op_index)`` performs one program
        operation.  Returns each program's final core-cycle time.
        """
        remaining = [ops_per_program] * len(self.controllers)
        counters = [0] * len(self.controllers)
        while any(remaining):
            candidates = [
                i for i, left in enumerate(remaining) if left > 0
            ]
            # The program whose clock is furthest behind issues next —
            # a fair global interleaving of the shared memory.
            index = min(candidates, key=lambda i: self.controllers[i].now)
            op(self.controllers[index], index, counters[index])
            counters[index] += 1
            remaining[index] -= 1
        return [controller.now for controller in self.controllers]

    def per_program_requests(self) -> List[Dict[str, int]]:
        out = []
        for controller in self.controllers:
            view = controller.memory
            out.append(
                {
                    "reads": view.own_traffic.get("reads"),
                    "writes": view.own_traffic.get("writes"),
                }
            )
        return out
