"""Plain (non-ORAM) NVM memory controller.

The yardstick for the paper's Section 5.1 remark that Path ORAM costs
2x-24x (about 11x on average, single channel) over an unprotected NVM
system: every LLC miss is a single line access, no obfuscation, no
metadata.  Drives the same engine pipeline as the ORAM controllers —
the "lookup" phase resolves every access directly against the flat NVM
address space, so the later phases never run.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SystemConfig
from repro.engine.base import AccessEngine, AccessResult
from repro.engine.policy import VolatilePolicy
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, RequestKind
from repro.util.clock import ClockDomain
from repro.util.stats import StatSet


class PlainNVMController(AccessEngine):
    """Direct-mapped, unprotected NVM access (no ORAM)."""

    #: No stash CAM or PosMap to consult.
    ONCHIP_LOOKUP_CYCLES = 0

    def __init__(
        self,
        config: SystemConfig,
        memory: Optional[NVMMainMemory] = None,
        key: bytes = b"",
    ):
        config.validate()
        self.config = config
        self.oram_config = config.oram  # reused for address-space sizing
        self.memory = memory or NVMMainMemory(
            config.nvm,
            channels=config.channels,
            banks_per_channel=config.banks_per_channel,
            line_bytes=config.oram.block_bytes,
        )
        self.clock = ClockDomain(config.core.freq_hz, config.nvm.freq_hz)
        self.now = 0
        self._version = 0
        self._round = 0
        self.stats = StatSet("plain")
        self.policy = VolatilePolicy()
        self.policy.attach(self)

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------

    def _validate_request(self, address, is_write, data, mutator):
        # No on-chip mutate path.  Writes treat a missing payload as zeros
        # (plain-memory semantics); reads silently ignore any payload, as
        # the original interface did.
        self._check_address(address)
        if mutator is not None:
            raise ValueError(
                f"{type(self).__name__} does not support read-modify-write"
            )
        if not is_write:
            return None
        payload = bytes(data or b"")
        return payload + bytes(self.oram_config.block_bytes - len(payload))

    def _count_access(self, is_write: bool) -> None:
        self.stats.counter("accesses").add()

    # The plain-memory baseline addresses NVM by logical address on
    # purpose — it exists to quantify what the ORAMs pay to hide exactly
    # this access pattern.
    def _lookup_phase(self, address, is_write, payload, mutator, start):  # analyze: ignore[oblivious]
        """One line access: reads stall the core, writes are posted."""
        line_address = address * self.oram_config.block_bytes
        mem_start = self.clock.core_to_mem(self.now)
        if is_write:
            self.memory.issue(
                line_address, Access.WRITE, mem_start, RequestKind.PLAIN, data=payload
            )
            result = payload
        else:
            request = self.memory.issue(
                line_address, Access.READ, mem_start, RequestKind.PLAIN
            )
            complete = request.complete_cycle
            self.now = self.clock.mem_to_core(
                complete if complete is not None else mem_start
            )
            stored = self.memory.load_line(line_address)
            result = stored if stored is not None else bytes(self.oram_config.block_bytes)
        return AccessResult(
            address=address,
            is_write=is_write,
            data=result,
            stash_hit=False,
            old_path=0,
            new_path=0,
            start_cycle=start,
            finish_cycle=self.now,
        )

    # ------------------------------------------------------------------
    # crash semantics (no volatile structures worth modelling)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """NVM content survives; nothing volatile worth modelling."""

    def recover(self) -> bool:
        return True

    def supports_crash_consistency(self) -> bool:
        """Single-line writes are individually atomic at line granularity."""
        return True
