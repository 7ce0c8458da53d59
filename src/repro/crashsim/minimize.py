"""Reproducer minimization for failing conformance cells.

A violating cell carries its full op/crash trace
(:class:`~repro.crashsim.conformance.CellResult.trace`).  This module
replays such traces deterministically (:func:`replay`), shrinks them with
greedy delta-debugging (:func:`minimize_trace`), and round-trips them as
standalone JSON reproducers::

    python -m repro.crashsim repro crash_repros/ps__step4-after-backup.json

A reproducer is self-contained: the spec names the variant, WPQ
geometry, tree height, config seed, scheduler window and integrity
switch; the events are the exact logical ops plus the armed crash(es).
No RNG is involved in replay — the trace *is* the workload — so a
minimized file keeps failing bit-identically on any machine.

Event schema (one dict per event):

* ``{"op": "write", "addr": int, "data": "<hex>"}``
* ``{"op": "read", "addr": int}``
* ``{"op": "crash", "point": str, "skip": int,
  "victim": {"op": "write"|"read", "addr": int, "data": "<hex>"?}}`` —
  arm the point, drive the victim op, power-cycle, check conformance,
  settle.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crashsim.conformance import CellSystem

Event = Dict[str, Any]


def make_spec(variant: str, wpq: str, height: int, config_seed: int,
              window: int = 1, integrity: bool = False) -> Dict[str, Any]:
    """The system half of a reproducer: everything but the ops.

    The defaults are what a spec written before specs recorded the window
    and the integrity switch was built with: serial, no domain.
    """
    return {"variant": variant, "wpq": wpq, "height": height,
            "config_seed": config_seed, "window": window,
            "integrity": integrity}


def replay(spec: Dict[str, Any], events: Sequence[Event]) -> List[str]:
    """Deterministically re-run a trace; return the violations it produces.

    Each crash event runs the cell's crash round
    (:meth:`~repro.crashsim.conformance.CellSystem.crash_round`).  The
    first crash event that yields violations stops the replay and
    returns them — matching how the original cell run stopped at its
    first inconsistent round.  A clean replay returns ``[]``.
    """
    system = CellSystem(**make_spec(**spec))
    for event in events:
        outcome = system.apply(event)
        if outcome is not None and outcome.violations:
            return outcome.violations
    return []


def minimize_trace(spec: Dict[str, Any],
                   events: Sequence[Event]) -> List[Event]:
    """Greedy chunk-removal (ddmin-style) shrink of a failing trace.

    The final event — the crash that exposed the violation — is pinned;
    every prefix chunk is removed if the replay still fails without it.
    Chunk size halves from len/2 down to single events.  The returned
    trace is guaranteed to still reproduce a violation.
    """
    if not replay(spec, events):
        raise ValueError("trace does not reproduce a violation; "
                         "nothing to minimize")
    current = list(events)
    chunk = max(1, (len(current) - 1) // 2)
    while True:
        removed_any = False
        i = 0
        while i < len(current) - 1:
            end = min(i + chunk, len(current) - 1)  # never touch the last
            candidate = current[:i] + current[end:]
            if replay(spec, candidate):
                current = candidate
                removed_any = True
            else:
                i = end
        if chunk == 1 and not removed_any:
            return current
        chunk = max(1, chunk // 2)


def write_reproducer(path, spec: Dict[str, Any], events: Sequence[Event],
                     violations: Sequence[str]) -> None:
    """Persist a standalone reproducer JSON."""
    payload = {"spec": spec, "events": list(events),
               "violations": list(violations)}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_reproducer(path) -> Tuple[Dict[str, Any], List[Event], List[str]]:
    payload = json.loads(Path(path).read_text())
    return make_spec(**payload["spec"]), payload["events"], payload.get("violations", [])


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.crashsim repro <file.json>`` — replay a reproducer."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.crashsim repro",
        description="Replay a minimized crash-conformance reproducer.",
    )
    parser.add_argument("reproducer", help="path to a reproducer JSON file")
    args = parser.parse_args(argv)

    spec, events, recorded = load_reproducer(args.reproducer)
    print(f"variant: {spec['variant']}  wpq: {spec['wpq']}  "
          f"height: {spec['height']}  window: {spec['window']}  "
          f"integrity: {'on' if spec['integrity'] else 'off'}  "
          f"events: {len(events)}")
    violations = replay(spec, events)
    if violations:
        print("REPRODUCED — violations:")
        for v in violations:
            print(f"  {v}")
        return 0
    print("did NOT reproduce; recorded violations were:")
    for v in recorded:
        print(f"  {v}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
