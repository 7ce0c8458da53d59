"""Shared harness for the benchmark suite.

The benches run the same pipeline the paper does — workload trace through
core + caches + variant controller — at a laptop-scale tree (height 10
instead of 23) and a few thousand LLC misses per point instead of millions.
Normalized results are what the paper reports and what the reduced scale
preserves; EXPERIMENTS.md records paper-vs-measured per figure.

Set ``REPRO_BENCH_SCALE`` in the environment to scale reference counts
(e.g. ``REPRO_BENCH_SCALE=5`` for 5x longer runs).

Sweeps can run in parallel: ``sweep(..., jobs=N)`` (or ``--jobs N`` on
``python -m repro``) fans the (variant x workload) points out across
worker processes via :mod:`repro.exec`, with an on-disk result cache and
a JSONL run journal.  Parallel results are bit-identical to serial ones;
see ``docs/PARALLEL.md``.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from typing import Dict, Iterable, List, Optional, Sequence

from repro.config import SystemConfig, small_config
from repro.sim.results import RunResult
from repro.sim.runner import run_variants
from repro.workloads.trace import Trace


def _parse_scale(raw: Optional[str]) -> float:
    """``REPRO_BENCH_SCALE`` as a positive finite float, else 1.0.

    A malformed value must not make the whole package unimportable (this
    runs at import time), so bad input warns — naming the value — and
    falls back to the default scale.
    """
    if raw is None:
        return 1.0
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = float("nan")
    if not math.isfinite(value) or value <= 0:
        warnings.warn(
            f"ignoring malformed REPRO_BENCH_SCALE={raw!r} "
            "(need a positive number); using 1.0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    return value


_SCALE = _parse_scale(os.environ.get("REPRO_BENCH_SCALE"))

#: Tree height used by the timing benches (protocol is height-independent;
#: see DESIGN.md).
BENCH_HEIGHT = 10

#: Memory references per workload replay (before scaling).
BENCH_REFERENCES = int(1200 * _SCALE)
BENCH_WARMUP = int(200 * _SCALE)

#: Default workload subset: one of each pattern family.  ``python -m
#: repro --full`` runs the full Table-4 suite; the pytest-benchmark runs
#: use this subset to stay fast.
BENCH_WORKLOADS = (
    "401.bzip2",      # streaming, high MPKI
    "429.mcf",        # pointer chase
    "403.gcc",        # low MPKI working set
    "471.omnetpp",    # zipf
)

#: Full Table-4 suite.
FULL_WORKLOADS = (
    "401.bzip2", "403.gcc", "429.mcf", "445.gobmk", "456.hmmer",
    "458.sjeng", "462.libquantum", "464.h264ref", "471.omnetpp",
    "483.xalancbmk", "444.namd", "453.povray", "470.lbm", "482.sphinx3",
)

BENCH_CONFIG = small_config(height=BENCH_HEIGHT)

_trace_cache: Dict[str, Trace] = {}
_result_cache: Dict[tuple, RunResult] = {}

#: Session-wide execution defaults, set by the CLI entry points
#: (``python -m repro --jobs N`` etc.) so every ``sweep()`` call in a
#: report run inherits them without threading parameters everywhere.
_exec_defaults = {"jobs": 1, "use_cache": None, "journal": None}


def set_execution_defaults(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    journal: Optional[str] = None,
) -> None:
    """Configure how subsequent :func:`sweep` calls execute.

    ``use_cache=None`` means "cache iff the exec path is engaged";
    explicit ``True`` routes even serial sweeps through the on-disk cache,
    ``False`` disables it outright.
    """
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        _exec_defaults["jobs"] = jobs
    if use_cache is not None:
        _exec_defaults["use_cache"] = use_cache
    if journal is not None:
        _exec_defaults["journal"] = journal


def sweep(
    variants: Sequence[str],
    workloads: Sequence[str] = BENCH_WORKLOADS,
    config: Optional[SystemConfig] = None,
    references: int = BENCH_REFERENCES,
    warmup: int = BENCH_WARMUP,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> List[RunResult]:
    """Run every variant on every workload with shared trace caching.

    Results are memoized per point — (variant, workload, config, sizes) —
    so sweeps that share points (Fig 5 performance and Fig 6 traffic,
    Fig 7's 1-channel systems, the WPQ ablation's default size) simulate
    each point once per session.  A serial sweep runs only its missing
    points; the result keeps the workload-outer, variant-inner order.

    With ``jobs > 1`` (argument or :func:`set_execution_defaults`) the
    points run through the :mod:`repro.exec` orchestrator: parallel
    workers, on-disk result cache (unless ``use_cache=False``), JSONL
    journal, and per-point fault tolerance.  Results are bit-identical to
    the serial path; failed points are reported on stderr and omitted.
    """
    config = config or BENCH_CONFIG
    jobs = jobs if jobs is not None else _exec_defaults["jobs"]
    use_cache = use_cache if use_cache is not None else _exec_defaults["use_cache"]
    config_key = repr(config)

    def point(variant: str, workload: str) -> tuple:
        return (variant, workload, config_key, references, warmup)

    keys = [point(variant, workload) for workload in workloads for variant in variants]
    if jobs > 1 or use_cache:
        if all(key in _result_cache for key in keys):
            return [_result_cache[key] for key in keys]
        results = _exec_sweep(
            variants, workloads, config, references, warmup, jobs, use_cache
        )
        if len(results) == len(keys):  # failed points are omitted
            _result_cache.update(zip(keys, results))
        return results

    for workload in workloads:
        missing = [
            variant for variant in variants
            if point(variant, workload) not in _result_cache
        ]
        if missing:
            results = run_variants(
                missing,
                config,
                (workload,),
                references=references,
                warmup_references=warmup,
                trace_cache=_trace_cache,
            )
            for variant, result in zip(missing, results):
                _result_cache[point(variant, workload)] = result
    return [_result_cache[key] for key in keys]


def _exec_sweep(
    variants: Sequence[str],
    workloads: Sequence[str],
    config: SystemConfig,
    references: int,
    warmup: int,
    jobs: int,
    use_cache: Optional[bool],
) -> List[RunResult]:
    """Route one sweep through the repro.exec orchestrator."""
    from repro.exec.cache import ResultCache, default_journal_path
    from repro.exec.journal import RunJournal
    from repro.exec.pool import SweepPoint, collect_results, run_sweep

    # Same (workload-outer, variant-inner) order as run_variants, so the
    # returned list lines up element-for-element with the serial path.
    points = [
        SweepPoint(variant, workload, config, references, warmup)
        for workload in workloads
        for variant in variants
    ]
    cache = ResultCache() if use_cache is not False else None
    journal_path = _exec_defaults["journal"] or default_journal_path()
    with RunJournal(journal_path) as journal:
        outcomes = run_sweep(points, jobs=jobs, cache=cache, journal=journal)
    for outcome in outcomes:
        if outcome.error is not None:
            print(f"sweep point failed: {outcome.error}", file=sys.stderr)
    return collect_results(outcomes)


def format_table(
    title: str,
    header: Iterable[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Render an aligned text table (the benches print paper-style rows)."""
    header = list(header)
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
