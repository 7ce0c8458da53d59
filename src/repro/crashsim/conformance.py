"""Single-cell crash-conformance runs, per variant, point and WPQ geometry.

A **cell** is one (variant, integrity, crash point, WPQ config)
combination of the campaign matrix (:mod:`repro.crashsim.matrix`).
:func:`run_cell` drives a deterministic randomized workload against a
fresh system, injects a crash at the cell's point each round,
power-cycles, and checks recovery with the tolerant-reference oracle
(:class:`~repro.crashsim.checker.ConsistencyChecker`): durability of
acknowledged writes and atomicity of the interrupted op, swept over the
*entire* logical span the workload draws from, so bystander corruption
the workload never touched fails the cell too.

The conformance contract is per variant class:

* a variant whose spec claims crash-consistency support must
  ``recover() == True`` and pass the sweep at every point;
* a volatile variant must *honestly* report ``recover() == False`` —
  that is conformant (it gets a fresh system each round); a volatile
  variant claiming successful recovery is a violation.

:meth:`CellSystem.crash_round` is that check, one crash round of it; the
reproducer replay (:mod:`repro.crashsim.minimize`) runs the same step.

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


@dataclass
class RoundOutcome:
    """What one crash round did, for the cell's counters."""

    fired: Optional[str]  #: the label the crash fired at; None = quiescent
    recovered: bool
    wpq_blocks_applied: int
    violations: List[str]


class CellSystem:
    """One cell's system under test, its checker and its crash injector.

    ``window > 1`` puts the controller behind the memory-level-parallel
    access window (docs/SCHEDULER.md); the scheduler drains to a barrier
    on every crash, so the conformance contract is unchanged.
    ``integrity`` attaches the integrity domain (docs/INTEGRITY.md).
    :meth:`apply` runs one trace event (schema in
    :mod:`repro.crashsim.minimize`); a ``crash`` event is the crash round.
    A volatile system that honestly failed recovery restarts empty.
    """

    def __init__(self, variant: str, wpq: str, height: int, config_seed: int,
                 window: int = 1, integrity: bool = False):
        self.variant = variant
        self.config = small_config(height=height, seed=config_seed,
                                   wpq=WPQ_CONFIGS[wpq], sched_window=window,
                                   integrity=integrity)
        #: The logical span the workload draws from, swept after each crash.
        self.span = max(8, self.config.oram.num_logical_blocks // 8)
        self._restart()
        self.supports = self.controller.supports_crash_consistency()

    def _restart(self) -> None:
        self.controller = build_scheduled(self.variant, self.config)
        self.checker = ConsistencyChecker(self.controller)
        self.injector = CrashInjector(self.controller)

    def apply(self, event: Dict[str, Any]) -> Optional[RoundOutcome]:
        op = event["op"]
        if op == "write":
            self.checker.write(event["addr"], bytes.fromhex(event["data"]))
        elif op == "read":
            self.checker.read(event["addr"])
        elif op == "crash":
            return self.crash_round(event)
        else:
            raise ValueError(f"unknown trace op {op!r}")
        return None

    def crash_round(self, event: Dict[str, Any]) -> RoundOutcome:
        """Arm the point, drive the victim op, power-cycle, check, settle."""
        victim = event["victim"]
        self.injector.arm(event["point"], skip_hits=event.get("skip", 0))
        try:
            self.apply(victim)
        except SimulatedCrash:
            if victim["op"] == "read":
                self.checker.note_interrupted_read(victim["addr"])
        self.injector.disarm()
        fired = self.injector.fired_point
        report = crash_and_recover(self.controller)
        violations = self._conformance(report.recovered)
        if not self.supports and not violations:
            self._restart()  # honest failure: the system restarts empty
        return RoundOutcome(
            fired=fired, recovered=report.recovered,
            wpq_blocks_applied=report.wpq_blocks_applied or 0,
            violations=[f"@ {fired or 'quiescent'}: {v}" for v in violations],
        )

    def _conformance(self, recovered: bool) -> List[str]:
        if not self.supports:
            return (["volatile variant claims successful recovery"]
                    if recovered else [])
        if not recovered:
            return ["recovery failed on a variant that claims support"]
        # Integrity contract (docs/INTEGRITY.md): recovery must yield an
        # image whose recomputed root matches the persisted witness before
        # any logical read-back — recovered-but-unverifiable is a failure.
        domain = getattr(self.controller, "integrity", None)
        if domain is not None and domain.recovery_violations:
            return list(domain.recovery_violations)
        check = self.checker.verify(range(self.span))
        if not check.consistent:
            return check.violations
        self.checker.settle()
        return []


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

    system = CellSystem(variant, wpq, height, seed, window, integrity)
    result = CellResult(variant=variant, point=point, wpq=wpq, rounds=rounds,
                        seed=seed, height=height, window=window,
                        integrity=integrity, supports=system.supports)
    span = system.span
    points = list(system.controller.crash_points())
    if point is not None and point != QUIESCENT and point not in points:
        raise ValueError(f"variant {variant!r} has no crash point {point!r}")

    trace: List[Dict[str, Any]] = []
    started = time.perf_counter()
    for round_no in range(rounds):
        # -- workload burst ---------------------------------------------------
        events: List[Dict[str, Any]] = []
        for i in range(ops_between_crashes):
            address = ops_rng.randrange(span)
            if ops_rng.random() < 0.7:
                data = bytes([ops_rng.randint(0, 255), i % 256])
                events.append({"op": "write", "addr": address,
                               "data": data.hex()})
            else:
                events.append({"op": "read", "addr": address})

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
        victim = ops_rng.randrange(span)
        if ops_rng.random() < 0.85:
            payload = bytes([ops_rng.randint(0, 255), 0xAA])
            victim_op = {"op": "write", "addr": victim, "data": payload.hex()}
        else:
            # Crash during a *read*: recovery must leave the block as-is.
            victim_op = {"op": "read", "addr": victim}
        events.append({"op": "crash", "point": armed, "skip": skip,
                       "victim": victim_op})

        for event in events[:-1]:
            system.apply(event)
        outcome = system.crash_round(events[-1])
        trace.extend(events)
        result.operations += len(events)
        if outcome.fired is not None:
            result.crashes_fired += 1
        else:
            result.quiescent_crashes += 1
        result.wpq_blocks_applied += outcome.wpq_blocks_applied
        if result.supports and outcome.recovered:
            result.recoveries += 1
        if outcome.violations:
            result.violations.extend(f"round {round_no} {v}"
                                     for v in outcome.violations)
            break
        if not result.supports:
            trace.clear()  # the system restarted empty

    result.wall_seconds = time.perf_counter() - started
    if result.violations:
        result.trace = trace
    return result
