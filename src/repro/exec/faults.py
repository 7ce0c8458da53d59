"""Error records for sweep points.

A sweep over hundreds of points must survive any single point failing:
the orchestrator records a point that raises, or whose worker process
dies, as a :class:`PointError` in the outcome list instead of aborting
the sweep.  ``normalize()`` and the report tables already tolerate
missing (variant, workload) cells, so a degraded sweep still yields every
figure the surviving points support.  A point that hangs is not caught:
the sweep waits for it.
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

    def __str__(self) -> str:
        return f"{self.variant}/{self.workload}: {self.kind}: {self.message}"
