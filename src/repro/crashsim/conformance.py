"""Single-cell crash-conformance runs: oracle + differential, per variant.

A **cell** is one (variant, integrity, crash point, WPQ config)
combination of the campaign matrix (:mod:`repro.crashsim.matrix`).
:func:`run_cell` drives a deterministic randomized workload against a
fresh system, injects a crash at the cell's point each round,
power-cycles, and checks recovery two independent ways:

1. the acknowledged/in-flight **oracle**
   (:class:`~repro.crashsim.checker.ConsistencyChecker`) — durability of
   acknowledged writes, atomicity of the interrupted op;
2. the **differential** check
   (:func:`~repro.crashsim.reference.diff_logical_state`) — the same op
   sequence replayed on a lock-step volatile reference controller, then
   the *entire* logical span diffed post-recovery, catching bystander
   corruption the oracle cannot see.

The conformance contract is per variant class:

* a variant whose spec claims crash-consistency support must
  ``recover() == True`` and pass both checks at every point;
* a volatile variant must *honestly* report ``recover() == False`` —
  that is conformant (it gets a fresh system each round); a volatile
  variant claiming successful recovery is a violation.

Every cell is deterministic given ``(variant, integrity, point, wpq,
rounds, seed, height, window)``: the workload and injection RNGs are
keyed substreams of the cell seed, so violations reproduce
bit-identically and the recorded op trace replays through
:mod:`repro.crashsim.minimize`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import WPQConfig, small_config
from repro.core.recovery import crash_and_recover
from repro.crashsim.checker import ConsistencyChecker
from repro.crashsim.injector import CrashInjector
from repro.crashsim.reference import ReferenceController, diff_logical_state
from repro.engine.registry import build_scheduled
from repro.errors import SimulatedCrash
from repro.util.rng import DeterministicRNG

#: WPQ geometries a cell can run under.  "small" (4+4 entries) forces
#: multi-round evictions so the step-5 drain protocol chains rounds.
WPQ_CONFIGS: Dict[str, Optional[WPQConfig]] = {
    "default": None,
    "small": WPQConfig(4, 4),
}

#: Pseudo-point for crash-at-quiescence cells: the injector arms a label
#: no controller ever announces, so the power cut always lands *between*
#: accesses — the paper's "before the next ORAM access" window of Case 3.
QUIESCENT = "quiescent"
_NEVER_FIRES = "__quiescent__"


@dataclass
class CellResult:
    """Outcome of one conformance cell (JSON round-trippable for the cache)."""

    variant: str
    point: Optional[str]  # None = random point per round
    wpq: str
    rounds: int
    seed: int
    height: int
    window: int = 1
    integrity: bool = False
    supports: bool = False
    operations: int = 0
    crashes_fired: int = 0
    quiescent_crashes: int = 0
    recoveries: int = 0
    wpq_blocks_applied: int = 0
    violations: List[str] = field(default_factory=list)
    #: Full op/crash trace — attached only when the cell found a
    #: violation, as input to reproducer minimization.
    trace: Optional[List[Dict[str, Any]]] = None
    wall_seconds: float = 0.0

    @property
    def consistent(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "variant": self.variant,
            "point": self.point,
            "wpq": self.wpq,
            "rounds": self.rounds,
            "seed": self.seed,
            "height": self.height,
            "window": self.window,
            "integrity": self.integrity,
            "supports": self.supports,
            "operations": self.operations,
            "crashes_fired": self.crashes_fired,
            "quiescent_crashes": self.quiescent_crashes,
            "recoveries": self.recoveries,
            "wpq_blocks_applied": self.wpq_blocks_applied,
            "violations": list(self.violations),
            "trace": self.trace,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellResult":
        return cls(**payload)


def _build_system(variant: str, height: int, wpq: str, config_seed: int,
                  window: int = 1, integrity: bool = False):
    """Build one cell's system; ``window > 1`` puts the controller behind
    the memory-level-parallel access window (docs/SCHEDULER.md).  The
    scheduler drains to a barrier on every crash, so the conformance
    contract is unchanged — this exercises exactly that property.
    ``integrity`` attaches the integrity domain (docs/INTEGRITY.md)."""
    config = small_config(height=height, seed=config_seed,
                          wpq=WPQ_CONFIGS[wpq], sched_window=window,
                          integrity=integrity)
    return config, build_scheduled(variant, config)


def _workload_span(config) -> int:
    return max(8, config.oram.num_logical_blocks // 8)


def run_cell(
    variant: str,
    point: Optional[str] = None,
    wpq: str = "default",
    rounds: int = 3,
    seed: int = 1,
    height: int = 6,
    ops_between_crashes: int = 8,
    window: int = 1,
    integrity: bool = False,
) -> CellResult:
    """Run one conformance cell; see the module docstring for the contract.

    ``point=None`` arms a random point each round (fuzzing mode);
    a fixed ``point`` pins every round's crash to that label (matrix
    mode).  ``integrity`` runs the variant with the integrity domain
    attached, like ``repro.serve``'s switch of the same name.
    """
    if wpq not in WPQ_CONFIGS:
        raise ValueError(f"unknown WPQ config {wpq!r}; "
                         f"choose from {sorted(WPQ_CONFIGS)}")
    cell_rng = DeterministicRNG(seed)
    ops_rng = cell_rng.substream("ops")
    inject_rng = cell_rng.substream("inject")

    config, controller = _build_system(variant, height, wpq, seed, window,
                                       integrity)
    result = CellResult(variant=variant, point=point, wpq=wpq, rounds=rounds,
                        seed=seed, height=height, window=window,
                        integrity=integrity,
                        supports=controller.supports_crash_consistency())
    span = _workload_span(config)
    checker = ConsistencyChecker(controller)
    reference = ReferenceController(span, config.oram.block_bytes)
    injector = CrashInjector(controller, inject_rng)
    points = list(controller.crash_points())
    if point is not None and point != QUIESCENT and point not in points:
        raise ValueError(f"variant {variant!r} has no crash point {point!r}")

    trace: List[Dict[str, Any]] = []
    started = time.perf_counter()
    for round_no in range(rounds):
        # -- workload burst, lock-stepped with the reference ------------------
        for i in range(ops_between_crashes):
            address = ops_rng.randrange(span)
            if ops_rng.random() < 0.7:
                data = bytes([ops_rng.randint(0, 255), i % 256])
                trace.append({"op": "write", "addr": address,
                              "data": data.hex()})
                checker.write(address, data)
                reference.write(address, data)
            else:
                trace.append({"op": "read", "addr": address})
                checker.read(address)
            result.operations += 1

        # -- the interrupted op ----------------------------------------------
        if point == QUIESCENT:
            armed = _NEVER_FIRES
        elif point is not None:
            armed = point
        else:
            armed = inject_rng.choice(points)
        # A checkpoint fires once per single-round access; skipping hits
        # only matters when small WPQs chain multiple drain rounds.  The
        # first round never skips, so a pinned cell is guaranteed to hit
        # its label at least once whenever the label is reachable.
        skip = inject_rng.randint(0, 2) if wpq == "small" and round_no > 0 else 0
        injector.arm(armed, skip_hits=skip)
        victim = ops_rng.randrange(span)
        crash_event: Dict[str, Any] = {"op": "crash", "point": armed,
                                       "skip": skip}
        acknowledged = False
        if ops_rng.random() < 0.85:
            payload = bytes([ops_rng.randint(0, 255), 0xAA])
            crash_event["victim"] = {"op": "write", "addr": victim,
                                     "data": payload.hex()}
            try:
                checker.write(victim, payload)
                acknowledged = True
            except SimulatedCrash:
                pass
        else:
            # Crash during a *read*: recovery must leave the block as-is.
            crash_event["victim"] = {"op": "read", "addr": victim}
            try:
                checker.read(victim)
                acknowledged = True
            except SimulatedCrash:
                checker.note_interrupted_read(victim)
        result.operations += 1
        trace.append(crash_event)
        injector.disarm()
        if injector.fired_point is not None:
            result.crashes_fired += 1
        else:
            result.quiescent_crashes += 1
        if acknowledged and crash_event["victim"]["op"] == "write":
            reference.write(victim, payload)

        # -- power cycle + conformance check ----------------------------------
        report = crash_and_recover(controller)
        if report.wpq_blocks_applied:
            result.wpq_blocks_applied += report.wpq_blocks_applied
        fired = injector.fired_point or "quiescent"
        prefix = f"round {round_no} @ {fired}"
        if result.supports:
            if not report.recovered:
                result.violations.append(f"{prefix}: recovery failed on a "
                                         "variant that claims support")
                break
            result.recoveries += 1
            # Integrity contract (docs/INTEGRITY.md): recovery must yield
            # an image whose recomputed root matches the persisted
            # witness *before* logical-state diffing even starts — a
            # recovered-but-unverifiable state is a conformance failure.
            domain = getattr(controller, "integrity", None)
            if domain is not None and domain.recovery_violations:
                result.violations.extend(
                    f"{prefix}: {v}" for v in domain.recovery_violations
                )
                break
            check = checker.verify()
            if not check.consistent:
                result.violations.extend(f"{prefix}: {v}"
                                         for v in check.violations)
                break
            diffs = diff_logical_state(controller, reference,
                                       checker.in_flight_window)
            if diffs:
                result.violations.extend(f"{prefix}: {v}" for v in diffs)
                break
            # Adopt the surviving value of the interrupted op on both
            # sides before the next round's workload.
            reference.apply(checker.settle())
        else:
            if report.recovered:
                result.violations.append(
                    f"{prefix}: volatile variant claims successful recovery")
                break
            # Honest failure is conformant; the system restarts empty.
            config, controller = _build_system(variant, height, wpq, seed,
                                               window, integrity)
            checker = ConsistencyChecker(controller)
            reference = ReferenceController(span, config.oram.block_bytes)
            injector = CrashInjector(controller, inject_rng)
            trace.clear()

    result.wall_seconds = time.perf_counter() - started
    if result.violations:
        result.trace = trace
    return result
