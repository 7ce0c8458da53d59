"""Result records and normalization helpers for the benches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


@dataclass
class RunResult:
    """Outcome of replaying one workload on one system variant."""

    variant: str
    workload: str
    cycles: int
    instructions: int
    llc_misses: int
    nvm_reads: int
    nvm_writes: int
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.llc_misses / self.instructions

    @property
    def cpi(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return {
            "variant": self.variant,
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "llc_misses": self.llc_misses,
            "nvm_reads": self.nvm_reads,
            "nvm_writes": self.nvm_writes,
            "extra": dict(self.extra),
        }


def normalize(
    results: Iterable[RunResult],
    baseline_variant: str,
    metric: str = "cycles",
) -> Dict[str, Dict[str, float]]:
    """Per-workload normalization against a baseline variant.

    Returns ``{variant: {workload: value / baseline_value}}`` — the form
    every figure in the paper reports ("normalized to Baseline").
    """
    by_key: Dict[tuple, RunResult] = {}
    variants: List[str] = []
    workloads: List[str] = []
    for result in results:
        by_key[(result.variant, result.workload)] = result
        if result.variant not in variants:
            variants.append(result.variant)
        if result.workload not in workloads:
            workloads.append(result.workload)

    out: Dict[str, Dict[str, float]] = {}
    for variant in variants:
        row: Dict[str, float] = {}
        for workload in workloads:
            result = by_key.get((variant, workload))
            base = by_key.get((baseline_variant, workload))
            if result is None or base is None:
                continue
            base_value = getattr(base, metric, None)
            value = getattr(result, metric, None)
            if base_value in (None, 0) or value is None:
                continue
            row[workload] = value / base_value
        out[variant] = row
    return out


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional aggregate for normalized times)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
