"""Every evaluated system variant as a hierarchy × policy × posmap row.

No variant is *defined* here — each is an assembly of one access
hierarchy (``path`` / ``hybrid`` / ``plain``), one persistence
policy (:mod:`repro.engine.policy`, :mod:`repro.engine.ps`, ...) and one
PosMap mode (``flat`` on-chip mirror vs ``recursive`` posmap tree),
registered as a :class:`repro.engine.registry.VariantSpec` (paper
Section 5.1):

=================  ============================================================
name               system
=================  ============================================================
``plain``          non-ORAM NVM (the 11x yardstick)
``baseline``       Path ORAM on NVM, no crash consistency
``fullnvm``        on-chip stash/PosMap built from PCM cells
``fullnvm-stt``    on-chip stash/PosMap built from STT-RAM cells
``naive-ps``       PS-ORAM persisting all Z*(L+1) PosMap entries per access
``ps``             PS-ORAM (dirty-entry persistence) — the paper's design
``rcr-baseline``   recursive ORAM, PosMap tree written every access, volatile
                   stash (persistent but not crash-consistent)
``rcr-ps``         recursive PS-ORAM (crash-consistent)
``eadr-oram``      extended-ADR: crash flush drains the stash (Table 2)
``ps-hybrid``      PS-ORAM with a write-through DRAM tree-top
=================  ============================================================

The persistent Merkle integrity domain (docs/INTEGRITY.md) is not a row:
``SystemConfig.integrity`` attaches it to any variant with an ORAM layout.
``python -m repro --list-variants`` prints this matrix.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import STTRAM_TIMING, SystemConfig
from repro.core.plain import PlainNVMController
from repro.core.recursive_ps import RcrPSORAMController
from repro.engine import registry
from repro.engine.eadr import EADRPolicy
from repro.engine.fullnvm import FullNVMPolicy
from repro.engine.ps import DirtyEntryPSPolicy, NaiveFlushAllPolicy
from repro.engine.registry import (  # noqa: F401
    VariantSpec,
    get_spec,
    variant_specs,
)
from repro.hybrid.controller import HybridPSORAMController
from repro.mem.controller import NVMMainMemory
from repro.oram.controller import PathORAMController
from repro.oram.recursive import RecursivePathORAM


def _assemble(hierarchy: Callable, make_policy: Callable) -> Callable:
    """Factory for ``hierarchy`` with a fresh ``make_policy()`` per build.

    The policy is constructed inside the factory, never shared: a policy
    owns per-controller state (WPQs, the temporary PosMap), so two builds
    of one spec must not see each other's.
    """

    def factory(config, memory=None, key=b"repro-psoram-key"):
        return hierarchy(config, memory=memory, key=key, policy=make_policy())

    return factory


_SPECS = (
    VariantSpec(
        "plain", "plain", "volatile", "none",
        "non-ORAM NVM system — the paper's 11x yardstick",
        PlainNVMController,
    ),
    VariantSpec(
        "baseline", "path", "volatile", "flat",
        "Path ORAM on NVM, volatile stash/PosMap (no crash consistency)",
        PathORAMController,
    ),
    VariantSpec(
        "fullnvm", "path", "full-nvm", "flat",
        "on-chip stash/PosMap built from PCM cells",
        _assemble(PathORAMController, FullNVMPolicy),
    ),
    VariantSpec(
        "fullnvm-stt", "path", "full-nvm-stt", "flat",
        "on-chip stash/PosMap built from STT-RAM cells",
        _assemble(PathORAMController, lambda: FullNVMPolicy(STTRAM_TIMING)),
    ),
    VariantSpec(
        "naive-ps", "path", "naive-flush-all", "flat",
        "PS-ORAM persisting all Z*(L+1) PosMap entries per access",
        _assemble(PathORAMController, NaiveFlushAllPolicy),
    ),
    VariantSpec(
        "ps", "path", "dirty-entry-ps", "flat",
        "PS-ORAM with dirty-entry persistence — the paper's design",
        _assemble(PathORAMController, DirtyEntryPSPolicy),
    ),
    VariantSpec(
        "rcr-baseline", "path", "volatile", "recursive",
        "recursive PosMap tree written every access; volatile stash",
        RecursivePathORAM,
    ),
    VariantSpec(
        "rcr-ps", "path", "dirty-entry-ps", "recursive",
        "recursive PS-ORAM with a persistent intent log (crash-consistent)",
        RcrPSORAMController,
    ),
    VariantSpec(
        "eadr-oram", "path", "eadr", "flat",
        "extended-ADR ORAM: the crash flush drains the stash into the tree",
        _assemble(PathORAMController, EADRPolicy),
    ),
    VariantSpec(
        "ps-hybrid", "hybrid", "dirty-entry-ps", "flat",
        "PS-ORAM with a write-through DRAM tree-top cache",
        HybridPSORAMController,
    ),
)

for _spec in _SPECS:
    registry.register(_spec)

#: Variants evaluated in Figure 5(a) (non-recursive systems).
NON_RECURSIVE_VARIANTS = ("baseline", "fullnvm", "fullnvm-stt", "naive-ps", "ps")

#: Variants evaluated in Figure 5(b) (recursive systems).
RECURSIVE_VARIANTS = ("rcr-baseline", "rcr-ps")


def build_variant(
    name: str,
    config: SystemConfig,
    memory: Optional[NVMMainMemory] = None,
    key: bytes = b"repro-psoram-key",
):
    """Instantiate a variant by name.

    Raises ``KeyError`` with the list of known names on a typo — catching a
    misspelt variant early beats a confusing downstream failure.
    """
    return registry.build_variant(name, config, memory=memory, key=key)
