"""Campaign-matrix driver: every variant × every crash point × WPQ config.

The conformance matrix turns :func:`~repro.crashsim.conformance.run_cell`
into a systematic sweep: one **cell** per registered variant, per
integrity setting (off, and on for every variant with an ORAM layout —
the ``<variant>+int`` rows), per label that system can fire (plus a
``quiescent`` crash-between-accesses cell), per WPQ geometry.  Cells are
independent and deterministic, so they run through the shared
:func:`repro.exec.run_sweep` process-pool orchestrator and its JSONL run
journal — the same machinery the performance sweeps use.

Failing cells of crash-consistency-supporting variants are automatically
shrunk into standalone reproducers (:mod:`repro.crashsim.minimize`) and
written to the reproducer directory, ready for
``python -m repro.crashsim repro <file>``.

CLI::

    python -m repro.crashsim matrix --rounds 3 --jobs 4
    python -m repro.crashsim matrix --variants ps,rcr-ps --wpq small
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.config import small_config
from repro.core.variants import get_spec
from repro.crashsim.conformance import QUIESCENT, WPQ_CONFIGS, CellResult, run_cell
from repro.crashsim.minimize import make_spec, minimize_trace, write_reproducer
from repro.engine.registry import variant_specs
from repro.exec.journal import RunJournal
from repro.exec.pool import PointOutcome, run_sweep

@dataclass(frozen=True)
class MatrixPoint:
    """One conformance cell, shaped for :func:`repro.exec.run_sweep`."""

    variant: str
    point: str  #: crash-point label, or :data:`QUIESCENT`
    wpq: str
    rounds: int
    seed: int  #: per-cell seed (already derived from the campaign seed)
    height: int
    window: int = 1  #: scheduler window depth (1 = serial pipeline)
    integrity: bool = False  #: integrity domain attached (docs/INTEGRITY.md)

    @property
    def system(self) -> str:
        """The variant, marked ``+int`` when the integrity domain is on."""
        return system_name(self.variant, self.integrity)

    @property
    def workload(self) -> str:
        """Journal/display slot the sweep machinery expects; marked
        ``+int`` so an integrity-on cell's run-journal events differ from
        its integrity-off twin's."""
        return f"{self.point}/{self.wpq}" + ("+int" if self.integrity else "")

    @property
    def label(self) -> str:
        return f"{self.variant}/{self.workload}"


def system_name(variant: str, integrity: bool) -> str:
    return f"{variant}+int" if integrity else variant


def cell_seed(campaign_seed: int, system: str, point: str, wpq: str) -> int:
    """Deterministic per-cell seed: distinct cells get distinct workloads.

    ``system`` is :func:`system_name`, so a variant's integrity-on cells
    draw other workloads than its integrity-off ones.
    """
    digest = hashlib.blake2b(
        f"{campaign_seed}|{system}|{point}|{wpq}".encode(), digest_size=6
    ).digest()
    return int.from_bytes(digest, "little")


def plan_matrix(
    variants: Optional[Sequence[str]] = None,
    wpqs: Optional[Sequence[str]] = None,
    rounds: int = 3,
    seed: int = 1,
    height: int = 6,
    points: Optional[Sequence[str]] = None,
    window: int = 1,
) -> List[MatrixPoint]:
    """Enumerate the full campaign matrix.

    Defaults to every registered variant with integrity off and on (on
    only where the variant has an ORAM layout), every crash point that
    system exposes plus the quiescent cell, under both WPQ geometries.
    ``points`` restricts the labels (the quiescent cell is only planned
    when explicitly listed or unrestricted).
    """
    names = list(variants) if variants else [s.name for s in variant_specs()]
    geometries = list(wpqs) if wpqs else list(WPQ_CONFIGS)
    for geometry in geometries:
        if geometry not in WPQ_CONFIGS:
            raise ValueError(f"unknown WPQ config {geometry!r}; "
                             f"choose from {sorted(WPQ_CONFIGS)}")
    plan: List[MatrixPoint] = []
    for name in names:
        for integrity in (False, True):
            # A probe instance tells which labels the system can fire.
            probe = get_spec(name).make(
                small_config(height=height, seed=0, integrity=integrity))
            if integrity and probe.integrity is None:
                continue  # no ORAM layout for the domain to cover
            labels = [*probe.crash_points(), QUIESCENT]
            if points is not None:
                labels = [label for label in labels if label in points]
            system = system_name(name, integrity)
            for wpq in geometries:
                for label in labels:
                    plan.append(MatrixPoint(
                        variant=name, point=label, wpq=wpq, rounds=rounds,
                        seed=cell_seed(seed, system, label, wpq),
                        height=height, window=window, integrity=integrity,
                    ))
    return plan


def execute_matrix_cell(point: MatrixPoint) -> CellResult:
    """Worker entry: run one cell from scratch (pool executor)."""
    return run_cell(
        point.variant, point=point.point, wpq=point.wpq,
        rounds=point.rounds, seed=point.seed, height=point.height,
        window=point.window, integrity=point.integrity,
    )


def run_matrix(
    plan: Sequence[MatrixPoint],
    jobs: int = 1,
    journal: Optional[RunJournal] = None,
) -> List[PointOutcome]:
    """Run the matrix through the shared sweep orchestrator."""
    return run_sweep(
        plan, jobs=jobs, journal=journal, executor=execute_matrix_cell,
    )


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def summarize_matrix(outcomes: Sequence[PointOutcome]) -> str:
    """Per-system summary table plus per-cell detail for failures."""
    per_system: Dict[str, Dict[str, int]] = {}
    for outcome in outcomes:
        row = per_system.setdefault(outcome.point.system, {
            "cells": 0, "fired": 0, "quiescent": 0, "violations": 0,
            "errors": 0,
        })
        row["cells"] += 1
        if outcome.error is not None:
            row["errors"] += 1
            continue
        cell = outcome.result
        row["fired"] += cell.crashes_fired
        row["quiescent"] += cell.quiescent_crashes
        row["violations"] += len(cell.violations)

    width = max(len(name) for name in per_system) if per_system else 7
    header = (f"{'variant':<{width}}  cells  fired  quiescent  "
              f"violations  errors")
    lines = [header, "-" * len(header)]
    for name in sorted(per_system):
        row = per_system[name]
        lines.append(
            f"{name:<{width}}  {row['cells']:>5}  {row['fired']:>5}  "
            f"{row['quiescent']:>9}  {row['violations']:>10}  "
            f"{row['errors']:>6}"
        )

    failures = [o for o in outcomes
                if o.error is not None or (o.result and o.result.violations)]
    if failures:
        lines.append("")
        lines.append("failing cells:")
        for outcome in failures:
            if outcome.error is not None:
                lines.append(f"  {outcome.point.label}: ERROR "
                             f"{outcome.error.kind}: {outcome.error.message}")
            else:
                for violation in outcome.result.violations:
                    lines.append(f"  {outcome.point.label}: {violation}")
    return "\n".join(lines)


def _reproducer_filename(point: MatrixPoint) -> str:
    slug = re.sub(r"[^A-Za-z0-9_.+-]+", "-", f"{point.system}__{point.point}__{point.wpq}")
    return f"{slug}.json"


def emit_reproducers(
    outcomes: Sequence[PointOutcome],
    repro_dir: Path,
    journal: Optional[RunJournal] = None,
) -> List[Path]:
    """Minimize and write a reproducer for every violating traced cell."""
    written: List[Path] = []
    for outcome in outcomes:
        cell = outcome.result
        if cell is None or not cell.violations:
            continue
        if journal is not None:
            journal.emit(
                "cell_violation",
                variant=outcome.point.variant,
                workload=outcome.point.workload,
                violations=cell.violations,
            )
        if not cell.trace:
            continue  # a volatile system restarted empty: nothing to replay
        spec = make_spec(cell.variant, cell.wpq, cell.height, cell.seed,
                         cell.window, cell.integrity)
        try:
            minimized = minimize_trace(spec, cell.trace)
        except ValueError:
            # The trace does not replay to a violation (e.g. the bug is
            # timing-dependent under the pool only) — ship it unshrunk.
            minimized = list(cell.trace)
        repro_dir.mkdir(parents=True, exist_ok=True)
        path = repro_dir / _reproducer_filename(outcome.point)
        write_reproducer(path, spec, minimized, cell.violations)
        written.append(path)
        if journal is not None:
            journal.emit(
                "reproducer_written",
                variant=outcome.point.variant,
                workload=outcome.point.workload,
                path=str(path), events=len(minimized),
            )
    return written


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.crashsim matrix",
        description="Differential crash-conformance matrix over every "
                    "variant, integrity setting, crash point and WPQ "
                    "geometry.",
    )
    known = [s.name for s in variant_specs()]
    parser.add_argument("--rounds", type=int, default=3,
                        help="crash/recovery rounds per cell (default 3)")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed; cells derive their own")
    parser.add_argument("--height", type=int, default=6)
    parser.add_argument("--window", type=int, default=1,
                        help="scheduler window depth (docs/SCHEDULER.md); "
                             "1 = serial pipeline (default)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default serial)")
    parser.add_argument("--variants", default=None,
                        help=f"comma-separated subset of: {', '.join(known)}")
    parser.add_argument("--wpq", default=None, choices=sorted(WPQ_CONFIGS),
                        help="restrict to one WPQ geometry (default: both)")
    parser.add_argument("--journal", default=None,
                        help="JSONL journal path (default: none)")
    parser.add_argument("--repro-dir", default="crash_repros",
                        help="where minimized reproducers are written")
    args = parser.parse_args(argv)

    variants = None
    if args.variants:
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        unknown = sorted(set(variants) - set(known))
        if unknown:
            parser.error(f"unknown variants: {', '.join(unknown)}")
    wpqs = [args.wpq] if args.wpq else None

    if args.window < 1:
        parser.error("--window must be >= 1")
    plan = plan_matrix(variants=variants, wpqs=wpqs, rounds=args.rounds,
                       seed=args.seed, height=args.height,
                       window=args.window)
    journal = RunJournal(args.journal) if args.journal else None

    print(f"matrix: {len(plan)} cells "
          f"({len(set(p.variant for p in plan))} variants, "
          f"{len(set(p.system for p in plan))} systems, "
          f"rounds={args.rounds}, jobs={args.jobs}, window={args.window})")
    if journal is not None:
        journal.emit("matrix_started", cells=len(plan), rounds=args.rounds,
                     seed=args.seed, height=args.height, window=args.window)
    outcomes = run_matrix(plan, jobs=args.jobs, journal=journal)
    print(summarize_matrix(outcomes))

    written = emit_reproducers(outcomes, Path(args.repro_dir), journal)
    for path in written:
        print(f"reproducer written: {path}")

    violations = sum(len(o.result.violations) for o in outcomes if o.result)
    errors = sum(1 for o in outcomes if o.error is not None)
    if journal is not None:
        journal.emit("matrix_finished", cells=len(outcomes),
                     violations=violations, errors=errors,
                     reproducers=len(written))
        journal.close()
    if violations or errors:
        print(f"verdict: NONCONFORMANT ({violations} violations, "
              f"{errors} errors)")
        return 1
    print("verdict: CONFORMANT — every cell consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
