"""Parallel experiment orchestration.

The figures in the paper are sweeps over (variant x workload x config)
points, and every point is independent of every other.  This package fans
those points out across worker processes, memoizes finished points in a
content-addressed on-disk cache, tolerates per-point faults (a raising or
crashing point becomes an error record, not a sweep abort), and streams a
JSONL journal of progress events that ``python -m repro.exec status``
summarizes.

The defining correctness property: a parallel sweep produces bit-identical
:class:`~repro.sim.results.RunResult` records to the serial path, because
every stochastic choice in a point is derived from the point itself (trace
seed, config seed) and never from scheduling order.

See ``docs/PARALLEL.md`` for the full design.
"""

from repro.exec.cache import ResultCache, code_version, point_key
from repro.exec.faults import PointError
from repro.exec.journal import RunJournal, read_events, summarize
from repro.exec.pool import (
    PointOutcome,
    SweepPoint,
    collect_results,
    execute_point,
    run_sweep,
)

__all__ = [
    "PointError",
    "PointOutcome",
    "ResultCache",
    "RunJournal",
    "SweepPoint",
    "code_version",
    "collect_results",
    "execute_point",
    "point_key",
    "read_events",
    "run_sweep",
    "summarize",
]
