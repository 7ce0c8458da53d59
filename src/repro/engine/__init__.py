"""Phase-structured ORAM access engine with pluggable persistence policies.

``repro.engine`` is the shared spine of every evaluated system:

* :mod:`repro.engine.base` — :class:`AccessEngine`, the single ``access``
  pipeline (position lookup → remap → fetch → absorb → program op →
  eviction plan → write-back → persist commit) every hierarchy drives.
* :mod:`repro.engine.policy` — the :class:`PersistencePolicy` strategy
  interface and the :class:`VolatilePolicy` baseline.
* :mod:`repro.engine.ps` / :mod:`repro.engine.eadr` /
  :mod:`repro.engine.fullnvm` — the concrete persistence strategies
  (imported on demand; not re-exported here to keep import cycles out of
  package init).
* :mod:`repro.engine.registry` — the hierarchy × policy × posmap variant
  matrix, populated by :mod:`repro.core.variants`.
"""

from repro.engine.base import PIPELINE_PHASES, AccessEngine, AccessResult
from repro.engine.policy import PersistencePolicy, VolatilePolicy
from repro.engine.sched import WindowScheduler, wrap_controller

__all__ = [
    "PIPELINE_PHASES",
    "AccessEngine",
    "AccessResult",
    "PersistencePolicy",
    "VolatilePolicy",
    "WindowScheduler",
    "wrap_controller",
]
