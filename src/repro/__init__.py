"""PS-ORAM reproduction: crash-consistent Oblivious RAM on NVM.

A full reimplementation of *PS-ORAM: Efficient Crash Consistency Support
for Oblivious RAM on NVM* (Liu, Li, Xiao, Wang — ISCA 2022), including the
Path ORAM substrate, the NVM timing model, the evaluated system variants,
a crash-injection harness, and benches regenerating every table and figure
of the paper's evaluation.

Quickstart::

    from repro import small_config, build_variant

    config = small_config(height=8)
    oram = build_variant("ps", config)          # PS-ORAM controller
    oram.write(7, b"hello world")
    oram.crash()                                 # power loss
    oram.recover()
    assert oram.read(7).data.rstrip(b"\\x00") == b"hello world"

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.config import (
    CacheConfig,
    CoreConfig,
    NVMTimingConfig,
    ORAMConfig,
    SystemConfig,
    WPQConfig,
    paper_config,
    small_config,
    PCM_TIMING,
    STTRAM_TIMING,
)
from repro.core import (
    PlainNVMController,
    RcrPSORAMController,
    build_variant,
)
from repro.apps import ObliviousKVStore
from repro.crashsim import ConsistencyChecker, CrashInjector
from repro.errors import (
    ConfigError,
    ORAMError,
    ReproError,
    SimulatedCrash,
    StashOverflowError,
)
from repro.oram import PathORAMController, RecursivePathORAM
from repro.sim import RunResult, SimulatedSystem, run_experiment, run_variants
from repro.workloads import SPEC_WORKLOADS, Trace, spec_workload

__version__ = "1.0.0"

__all__ = [
    # configuration
    "CacheConfig",
    "CoreConfig",
    "NVMTimingConfig",
    "ORAMConfig",
    "SystemConfig",
    "WPQConfig",
    "paper_config",
    "small_config",
    "PCM_TIMING",
    "STTRAM_TIMING",
    # controllers
    "PathORAMController",
    "RecursivePathORAM",
    "PlainNVMController",
    "RcrPSORAMController",
    "build_variant",
    # applications
    "ObliviousKVStore",
    # crash tooling
    "ConsistencyChecker",
    "CrashInjector",
    # simulation
    "SimulatedSystem",
    "RunResult",
    "run_experiment",
    "run_variants",
    # workloads
    "SPEC_WORKLOADS",
    "Trace",
    "spec_workload",
    # errors
    "ReproError",
    "ConfigError",
    "ORAMError",
    "StashOverflowError",
    "SimulatedCrash",
    "__version__",
]
