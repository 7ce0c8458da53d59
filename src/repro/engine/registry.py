"""Variant registry: evaluated systems as hierarchy × policy × posmap rows.

Every system the paper evaluates is a :class:`VariantSpec` — an assembly
of one access hierarchy (path / hybrid / plain), one persistence policy and
one PosMap mode (flat on-chip vs recursive) — registered here by
:mod:`repro.core.variants`.  Nothing in the registry is a subclass; the
``factory`` closes over the assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class VariantSpec:
    """One evaluated system: a (hierarchy, policy, posmap) assembly."""

    name: str
    hierarchy: str  #: "path" | "hybrid" | "plain"
    policy: str  #: "volatile" | "naive-flush-all" | "dirty-entry-ps" | ...
    posmap: str  #: "flat" | "recursive"
    summary: str  #: one-line description for --list-variants
    factory: Callable

    def make(self, config, **kwargs):
        """Assemble this variant's controller for ``config``.

        The one sanctioned way to turn a spec into a running system —
        callers (serve shards, conformance cells, apps) hold a spec and
        call ``make`` instead of re-implementing controller assembly.
        ``kwargs`` are forwarded to the factory (``memory=``, ``key=``).

        ``config.integrity`` attaches the integrity domain — the only
        switch for it.  A controller without an ORAM memory layout (the
        plain non-ORAM yardstick) has no trees for the domain to cover and
        is left untouched, so an integrity sweep can still include it as
        the no-integrity baseline.
        """
        controller = self.factory(config, **kwargs)
        if config.integrity and getattr(controller, "layout", None) is not None:
            from repro.integrity.domain import enable_integrity  # lazy: avoid cycle

            enable_integrity(controller)
        return controller


REGISTRY: Dict[str, VariantSpec] = {}


def register(spec: VariantSpec) -> VariantSpec:
    REGISTRY[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    # The specs live in repro.core.variants (which imports the hierarchy
    # modules); load lazily so `import repro.engine` stays lightweight.
    if not REGISTRY:
        import repro.core.variants  # noqa: F401


def get_spec(name: str) -> VariantSpec:
    """Look up a registered spec by name (loud KeyError on a typo)."""
    _ensure_registered()
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown variant {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None


def build_variant(name: str, config, **kwargs):
    """Instantiate the named variant's controller for ``config``."""
    return get_spec(name).make(config, **kwargs)


def build_scheduled(name: str, config, window: Optional[int] = None, **kwargs):
    """Build a variant behind the memory-level-parallel access window.

    ``window`` overrides ``config.sched_window``; depth 1 returns the
    bare controller (zero wrapper overhead, timing-identical to the
    serial pipeline).  The integrity domain (``config.integrity``)
    attaches to the bare controller before wrapping — the scheduler
    drains to a barrier around crash/recover, so the domain always sees
    a quiet machine.
    """
    from repro.engine.sched import wrap_controller  # lazy: avoid cycle

    controller = get_spec(name).make(config, **kwargs)
    return wrap_controller(controller, config.sched_window if window is None else window)


def variant_specs() -> List[VariantSpec]:
    """All registered specs, sorted by name."""
    _ensure_registered()
    return [REGISTRY[name] for name in sorted(REGISTRY)]
