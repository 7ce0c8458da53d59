"""Clock-domain conversion between the core and the memory controller.

The core runs at 3.2 GHz and the NVM controller at 400 MHz (paper Table 3),
an 8:1 ratio.  The memory model keeps time in its own cycles; the ORAM
controller and the CPU model keep time in core cycles.  A
:class:`ClockDomain` converts between the two, rounding conservatively
(ceil) so latencies are never under-reported.
"""

from __future__ import annotations

import math


class ClockDomain:
    """Converts between core cycles and memory cycles."""

    def __init__(self, core_freq_hz: float, mem_freq_hz: float):
        if core_freq_hz <= 0 or mem_freq_hz <= 0:
            raise ValueError("frequencies must be positive")
        self.core_freq_hz = core_freq_hz
        self.mem_freq_hz = mem_freq_hz
        self.ratio = core_freq_hz / mem_freq_hz

    def core_to_mem(self, core_cycles: int) -> int:
        """Memory cycle corresponding to a core-cycle timestamp (floor)."""
        return int(core_cycles / self.ratio)

    def core_to_mem_ceil(self, core_cycles: int) -> int:
        """First memory cycle at or after a core-cycle timestamp."""
        return int(math.ceil(core_cycles / self.ratio))

    def mem_to_core(self, mem_cycles: int) -> int:
        """Core cycle corresponding to a memory-cycle timestamp (ceil)."""
        return int(math.ceil(mem_cycles * self.ratio))

    def mem_latency_to_core(self, mem_cycles: int) -> int:
        """A memory-cycle *duration* expressed in core cycles (ceil)."""
        return int(math.ceil(mem_cycles * self.ratio))
