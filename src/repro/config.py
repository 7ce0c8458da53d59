"""System configuration dataclasses.

The defaults reproduce Table 3 of the paper:

* on-chip: 1 in-order core at 3.2 GHz, 32KB/32KB L1 I/D (2-way), 1MB L2
  (8-way);
* ORAM controller: 64B blocks, 4GB data ORAM (tree height L = 23), Z = 4
  slots per bucket, 200-entry stash, 96-entry temporary PosMap, 32-cycle
  AES-128 latency;
* persistence domain: 4GB PCM (or STT-RAM) at 400 MHz with the listed
  timing parameters, and 96- or 4-entry WPQs.

For test and example runs a much smaller tree is used (the protocol is
height-independent); the full-scale constants are still available as
``PAPER_*`` objects so energy/size calculations match the paper exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class NVMTimingConfig:
    """Timing/energy parameters for one NVM technology (paper Table 3c).

    All ``t_*`` values are in memory-controller cycles at ``freq_hz``.
    ``read_energy_pj`` / ``write_energy_pj`` are per-64B-line energies used
    by the wear/energy accounting (representative PCM/STT values from the
    cited NVMain models).
    """

    name: str = "PCM"
    capacity_bytes: int = 4 * 1024 * 1024 * 1024
    freq_hz: float = 400e6
    t_rcd: int = 48
    t_wp: int = 60
    t_cwd: int = 4
    t_wtr: int = 3
    t_rp: int = 1
    t_ccd: int = 2
    read_energy_pj: float = 2000.0
    write_energy_pj: float = 16000.0

    def validate(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(f"NVM capacity must be positive, got {self.capacity_bytes}")
        if self.freq_hz <= 0:
            raise ConfigError(f"NVM frequency must be positive, got {self.freq_hz}")
        for name in ("t_rcd", "t_wp", "t_cwd", "t_wtr", "t_rp", "t_ccd"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    @property
    def read_latency_cycles(self) -> int:
        """Cycles to service one read (activate + precharge)."""
        return self.t_rcd + self.t_rp

    @property
    def write_latency_cycles(self) -> int:
        """Cycles to service one write (write pulse + turnaround)."""
        return self.t_cwd + self.t_wp + self.t_wtr

    @property
    def cycle_ns(self) -> float:
        return 1e9 / self.freq_hz


# Paper Table 3c parameter sets.
PCM_TIMING = NVMTimingConfig(
    name="PCM", t_rcd=48, t_wp=60, t_cwd=4, t_wtr=3, t_rp=1, t_ccd=2
)
STTRAM_TIMING = NVMTimingConfig(
    name="STTRAM",
    t_rcd=14,
    t_wp=14,
    t_cwd=10,
    t_wtr=5,
    t_rp=1,
    t_ccd=2,
    read_energy_pj=800.0,
    write_energy_pj=2500.0,
)


@dataclass(frozen=True)
class CacheConfig:
    """One cache level (size/associativity/latency), paper Table 3a."""

    name: str = "L2"
    size_bytes: int = 1024 * 1024
    line_bytes: int = 64
    ways: int = 8
    read_latency: int = 20
    write_latency: int = 20

    def validate(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ConfigError(f"cache {self.name}: sizes and ways must be positive")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigError(
                f"cache {self.name}: size {self.size_bytes} not divisible by "
                f"line_bytes*ways = {self.line_bytes * self.ways}"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


L1D_CONFIG = CacheConfig(name="L1D", size_bytes=32 * 1024, ways=2, read_latency=2, write_latency=2)
L1I_CONFIG = CacheConfig(name="L1I", size_bytes=32 * 1024, ways=2, read_latency=2, write_latency=2)
L2_CONFIG = CacheConfig(name="L2", size_bytes=1024 * 1024, ways=8, read_latency=20, write_latency=20)


@dataclass(frozen=True)
class CoreConfig:
    """In-order core model (paper Table 3a)."""

    freq_hz: float = 3.2e9
    base_cpi: float = 1.0

    def validate(self) -> None:
        if self.freq_hz <= 0:
            raise ConfigError(f"core frequency must be positive, got {self.freq_hz}")
        if self.base_cpi <= 0:
            raise ConfigError(f"base CPI must be positive, got {self.base_cpi}")


@dataclass(frozen=True)
class ORAMConfig:
    """Path ORAM construction parameters (paper Table 3b).

    ``height`` is L; the tree has ``2**height`` leaves and holds
    ``Z * (2**(height+1) - 1)`` block slots.  Utilization is fixed at 50%
    following the paper (and Ren et al.), so the number of usable logical
    blocks is half the slot count.
    """

    height: int = 23
    z: int = 4
    block_bytes: int = 64
    stash_capacity: int = 200
    temp_posmap_capacity: int = 96
    aes_latency_cycles: int = 32
    utilization: float = 0.5

    def validate(self) -> None:
        if self.height < 1:
            raise ConfigError(f"tree height must be >= 1, got {self.height}")
        if self.z < 1:
            raise ConfigError(f"Z must be >= 1, got {self.z}")
        if self.block_bytes < 16:
            raise ConfigError(f"block size must be >= 16 bytes, got {self.block_bytes}")
        if self.stash_capacity < self.z * (self.height + 1):
            raise ConfigError(
                f"stash capacity {self.stash_capacity} cannot hold one full path "
                f"of {self.z * (self.height + 1)} blocks"
            )
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigError(f"utilization must be in (0, 1], got {self.utilization}")

    @property
    def posmap_entries_per_block(self) -> int:
        """How many 8-byte path ids fit in one recursive PosMap block."""
        return self.block_bytes // 8

    @property
    def num_leaves(self) -> int:
        return 1 << self.height

    @property
    def num_buckets(self) -> int:
        return (1 << (self.height + 1)) - 1

    @property
    def total_slots(self) -> int:
        return self.z * self.num_buckets

    @property
    def num_logical_blocks(self) -> int:
        """Usable logical address space (slots scaled by utilization)."""
        return int(self.total_slots * self.utilization)

    @property
    def path_blocks(self) -> int:
        """Blocks on one path: Z * (L + 1)."""
        return self.z * (self.height + 1)

    @property
    def tree_bytes(self) -> int:
        return self.total_slots * self.block_bytes


@dataclass(frozen=True)
class WPQConfig:
    """Write-pending-queue sizing (paper Section 4.2.3)."""

    data_entries: int = 96
    posmap_entries: int = 96

    def validate(self) -> None:
        if self.data_entries < 1 or self.posmap_entries < 1:
            raise ConfigError("WPQ sizes must be >= 1")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one simulated system."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1d: CacheConfig = field(default_factory=lambda: L1D_CONFIG)
    l1i: CacheConfig = field(default_factory=lambda: L1I_CONFIG)
    l2: CacheConfig = field(default_factory=lambda: L2_CONFIG)
    oram: ORAMConfig = field(default_factory=ORAMConfig)
    nvm: NVMTimingConfig = field(default_factory=lambda: PCM_TIMING)
    # Technology used to build on-chip stash/PosMap for the FullNVM variants;
    # None means SRAM (latency folded into controller constants).
    onchip_nvm: Optional[NVMTimingConfig] = None
    wpq: WPQConfig = field(default_factory=WPQConfig)
    channels: int = 1
    banks_per_channel: int = 8
    seed: int = 1
    # In-flight access window depth for the memory-level-parallel
    # scheduler (repro.engine.sched); 1 = today's serial pipeline.
    sched_window: int = 1
    # Attach the crash-consistent integrity domain (repro.integrity) to
    # built controllers; the persistence policy picks the discipline.
    # Off by default — integrity-off runs are bit-identical to before.
    integrity: bool = False

    def validate(self) -> None:
        """Check every sub-config and cross-config constraints."""
        self.core.validate()
        self.l1d.validate()
        self.l1i.validate()
        self.l2.validate()
        self.oram.validate()
        self.nvm.validate()
        if self.onchip_nvm is not None:
            self.onchip_nvm.validate()
        self.wpq.validate()
        if self.channels < 1:
            raise ConfigError(f"channel count must be >= 1, got {self.channels}")
        if self.banks_per_channel < 1:
            raise ConfigError(f"banks per channel must be >= 1, got {self.banks_per_channel}")
        if self.sched_window < 1:
            raise ConfigError(f"scheduler window must be >= 1, got {self.sched_window}")
        if self.oram.tree_bytes > self.nvm.capacity_bytes:
            raise ConfigError(
                f"ORAM tree ({self.oram.tree_bytes} bytes) does not fit in NVM "
                f"({self.nvm.capacity_bytes} bytes)"
            )
        if self.oram.block_bytes != self.l2.line_bytes:
            raise ConfigError(
                f"ORAM block size {self.oram.block_bytes} must match the L2 line "
                f"size {self.l2.line_bytes}"
            )

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)


def paper_config() -> SystemConfig:
    """The full-scale configuration from Table 3 (4GB ORAM, L = 23)."""
    return SystemConfig()


def small_config(
    height: int = 8,
    z: int = 4,
    channels: int = 1,
    seed: int = 1,
    stash_capacity: Optional[int] = None,
    wpq: Optional[WPQConfig] = None,
    sched_window: int = 1,
    integrity: bool = False,
) -> SystemConfig:
    """A laptop-scale configuration for tests, examples and benches.

    The protocol and all normalized results are height-independent to first
    order; a height-8 tree (255 buckets) keeps pure-Python runs fast.  The
    NVM capacity is shrunk to 4x the tree so validation still passes.
    """
    if stash_capacity is None:
        stash_capacity = max(200, 2 * z * (height + 1))
    oram = ORAMConfig(
        height=height,
        z=z,
        stash_capacity=stash_capacity,
    )
    nvm = dataclasses.replace(PCM_TIMING, capacity_bytes=max(oram.tree_bytes * 4, 1 << 20))
    cfg = SystemConfig(
        oram=oram,
        nvm=nvm,
        channels=channels,
        seed=seed,
        wpq=wpq if wpq is not None else WPQConfig(),
        sched_window=sched_window,
        integrity=integrity,
    )
    cfg.validate()
    return cfg
