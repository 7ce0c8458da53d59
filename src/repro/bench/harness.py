"""Shared harness for the benchmark suite.

The benches run the same pipeline the paper does — workload trace through
core + caches + variant controller — at a laptop-scale tree (height 10
instead of 23) and a few thousand LLC misses per point instead of millions.
Normalized results are what the paper reports and what the reduced scale
preserves; EXPERIMENTS.md records paper-vs-measured per figure.

Set ``REPRO_BENCH_SCALE`` in the environment to scale reference counts
(e.g. ``REPRO_BENCH_SCALE=5`` for 5x longer runs).

Every sweep runs its points through :mod:`repro.exec`: in-process by
default, across worker processes with ``sweep(..., jobs=N)`` (or ``--jobs
N`` on ``python -m repro``).  Parallel results are bit-identical to
serial ones, and a failed point fails the sweep at any ``jobs``; see
``docs/PARALLEL.md``.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import Dict, Iterable, List, Optional, Sequence

from repro.config import SystemConfig, small_config
from repro.exec.journal import RunJournal
from repro.exec.pool import SweepPoint, collect_results, run_sweep
from repro.sim.results import RunResult


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

_result_cache: Dict[tuple, RunResult] = {}

#: Session-wide execution defaults, set by the report CLI (``python -m
#: repro --jobs N``) so every ``sweep()`` call in a report run inherits
#: them without threading parameters everywhere.
_exec_defaults = {"jobs": 1, "journal": None}


def set_execution_defaults(
    jobs: Optional[int] = None,
    journal: Optional[RunJournal] = None,
) -> None:
    """Configure how subsequent :func:`sweep` calls execute.

    ``jobs`` is kept when ``None``; ``journal`` is always replaced, so
    ``None`` stops journaling.
    """
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        _exec_defaults["jobs"] = jobs
    _exec_defaults["journal"] = journal


def sweep(
    variants: Sequence[str],
    workloads: Sequence[str] = BENCH_WORKLOADS,
    config: Optional[SystemConfig] = None,
    references: int = BENCH_REFERENCES,
    warmup: int = BENCH_WARMUP,
    jobs: Optional[int] = None,
) -> List[RunResult]:
    """Run every variant on every workload; workload-outer, variant-inner.

    Results are memoized per point — (variant, workload, config, sizes) —
    so sweeps that share points (Fig 5 performance and Fig 6 traffic,
    Fig 7's 1-channel systems, the WPQ ablation's default size) simulate
    each point once per session.  Only the missing points run, through
    :func:`repro.exec.run_sweep`: in-process when ``jobs`` (argument or
    :func:`set_execution_defaults`) is 1, in worker processes otherwise,
    with bit-identical results.  Any failed point raises, naming every
    failed ``variant/workload`` with its traceback.
    """
    config = config or BENCH_CONFIG
    jobs = jobs if jobs is not None else _exec_defaults["jobs"]
    config_key = repr(config)
    keys = [
        (variant, workload, config_key, references, warmup)
        for workload in workloads
        for variant in variants
    ]
    missing = {
        key: SweepPoint(key[0], key[1], config, references, warmup)
        for key in keys
        if key not in _result_cache
    }
    if missing:
        outcomes = run_sweep(
            list(missing.values()), jobs=jobs, journal=_exec_defaults["journal"]
        )
        _result_cache.update(zip(missing, collect_results(outcomes)))
    return [_result_cache[key] for key in keys]


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
