"""Structured run journal: JSONL progress events for a sweep.

One line per event, flushed as written, so a crashed or interrupted sweep
leaves a readable record up to the instant it died.  Events:

====================  =====================================================
``sweep_started``     run_id, total points, jobs
``point_started``     key, variant, workload, worker
``point_finished``    key, variant, workload, worker, wall_s
``point_cached``      key, variant, workload (served from the result cache)
``point_failed``      key, variant, workload, kind, error
``sweep_interrupted`` run_id (KeyboardInterrupt: outstanding points killed)
``sweep_finished``    run_id, finished/cached/failed counts, wall_s
====================  =====================================================

Every event also carries ``ts`` (unix seconds) and ``run``, the run id of
the enclosing sweep, so several sweeps can append to one journal file and
``python -m repro.exec status`` can summarize just the latest.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional


class RunJournal:
    """Append-only JSONL event stream for one (or more) sweep runs."""

    def __init__(self, path: os.PathLike, run_id: Optional[str] = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self._handle = open(self.path, "a")

    def emit(self, event: str, **fields) -> None:
        """Write one event line and flush it immediately."""
        if self._handle.closed:
            return
        record = {"event": event, "run": self.run_id, "ts": time.time()}
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: os.PathLike) -> List[Dict]:
    """Parse a journal file; malformed lines (torn writes) are skipped."""
    events: List[Dict] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        return []
    return events


def last_run_events(events: List[Dict]) -> List[Dict]:
    """Events belonging to the most recent ``sweep_started`` run."""
    last_run = None
    for event in events:
        if event.get("event") == "sweep_started":
            last_run = event.get("run")
    if last_run is None:
        return events
    return [e for e in events if e.get("run") == last_run]


def summarize(events: List[Dict]) -> Dict:
    """Aggregate one run's events into the status-report dict."""
    started = [e for e in events if e.get("event") == "point_started"]
    finished = [e for e in events if e.get("event") == "point_finished"]
    cached = [e for e in events if e.get("event") == "point_cached"]
    failed = [e for e in events if e.get("event") == "point_failed"]
    total_points = len(finished) + len(cached) + len(failed)
    sweep_meta = next(
        (e for e in events if e.get("event") == "sweep_started"), {}
    )
    walls = sorted(
        (e.get("wall_s", 0.0), f"{e.get('variant')}/{e.get('workload')}")
        for e in finished
    )
    per_worker: Dict[str, int] = {}
    for event in finished:
        worker = str(event.get("worker", "?"))
        per_worker[worker] = per_worker.get(worker, 0) + 1
    return {
        "run": sweep_meta.get("run"),
        "jobs": sweep_meta.get("jobs"),
        "planned": sweep_meta.get("points"),
        "points": total_points,
        "finished": len(finished),
        "cached": len(cached),
        "failed": len(failed),
        "in_flight": max(0, len(started) - len(finished) - len(failed)),
        "interrupted": any(
            e.get("event") == "sweep_interrupted" for e in events
        ),
        "cache_hit_rate": (len(cached) / total_points) if total_points else 0.0,
        "compute_wall_s": sum(w for w, _ in walls),
        "slowest": walls[-3:][::-1],
        "per_worker": per_worker,
        "failures": [
            f"{e.get('variant')}/{e.get('workload')}: {e.get('kind')}: "
            f"{e.get('error')}"
            for e in failed
        ],
    }


def format_status(summary: Dict) -> str:
    """Human-readable rendering of :func:`summarize`'s output."""
    lines = [
        f"run {summary['run'] or '<none>'}"
        + (f"  (jobs={summary['jobs']})" if summary.get("jobs") else ""),
        f"  points: {summary['points']}"
        + (f" of {summary['planned']} planned" if summary.get("planned") else ""),
        f"  finished: {summary['finished']}   cached: {summary['cached']}"
        f"   failed: {summary['failed']}   in-flight: {summary['in_flight']}",
        f"  cache hit rate: {summary['cache_hit_rate']:.0%}",
        f"  compute wall time: {summary['compute_wall_s']:.1f}s",
    ]
    if summary["interrupted"]:
        lines.append("  ** run was interrupted (SIGINT) **")
    if summary["slowest"]:
        slow = ", ".join(f"{label} ({wall:.1f}s)" for wall, label in summary["slowest"])
        lines.append(f"  slowest points: {slow}")
    if summary["per_worker"]:
        spread = ", ".join(
            f"w{worker}: {count}"
            for worker, count in sorted(summary["per_worker"].items())
        )
        lines.append(f"  per-worker points: {spread}")
    for failure in summary["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)
