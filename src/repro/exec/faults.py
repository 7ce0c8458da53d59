"""Error records for sweep points.

The orchestrator records a point that raises, or whose worker process
dies, as a :class:`PointError` in the outcome list instead of aborting
the sweep, so every other point still runs and the journal records each
failure.  :func:`~repro.exec.pool.collect_results` then raises, naming
every failed point with its traceback: a figure is never drawn from a
sweep with a hole in it.  A point that hangs is not caught: the sweep
waits for it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How a point failed.
KIND_EXCEPTION = "exception"  # worker raised
KIND_CRASH = "crash"          # worker process died without reporting


@dataclass(frozen=True)
class PointError:
    """Terminal failure record for one sweep point."""

    variant: str
    workload: str
    kind: str          # KIND_EXCEPTION | KIND_CRASH
    message: str
    #: The worker's formatted traceback (empty for a crash).
    traceback: str = ""

    def __str__(self) -> str:
        return f"{self.variant}/{self.workload}: {self.kind}: {self.message}"
