"""Crash-injection harness, consistency oracle and conformance matrix.

* :mod:`repro.crashsim.injector` — arms a controller's crash hook so a
  simulated power loss fires at a chosen protocol step (or randomly), then
  runs crash + recovery.
* :mod:`repro.crashsim.oracle` — the tolerant reference, generic over
  key and read-back: acknowledged values, a tolerance set per unresolved
  key, the live read check, a pure sweep and ``settle``.  Engine cells
  and service cells (:mod:`repro.serve.conformance`) both drive it.
* :mod:`repro.crashsim.checker` — the address-keyed checker on top of it:
  writes and reads one controller, then verifies post-recovery content
  (acknowledged writes durable, in-flight accesses atomic).
* :mod:`repro.crashsim.conformance` — single-cell conformance runs and
  the crash-round step they share with reproducer replay.
* :mod:`repro.crashsim.matrix` — the campaign matrix over every
  registered variant × crash point × WPQ config, run through the shared
  sweep pool with caching and journaling.
* :mod:`repro.crashsim.minimize` — trace replay, reproducer
  minimization, and the standalone-reproducer JSON format.
"""

from repro.crashsim.checker import ConsistencyChecker
from repro.crashsim.conformance import QUIESCENT, CellResult, run_cell
from repro.crashsim.injector import CRASH_POINTS, CrashInjector, CrashOutcome
from repro.crashsim.matrix import MatrixPoint, plan_matrix, run_matrix
from repro.crashsim.minimize import minimize_trace, replay
from repro.crashsim.oracle import CheckReport, TolerantReference

__all__ = [
    "ConsistencyChecker",
    "CheckReport",
    "CrashInjector",
    "CrashOutcome",
    "CRASH_POINTS",
    "CellResult",
    "MatrixPoint",
    "QUIESCENT",
    "TolerantReference",
    "minimize_trace",
    "plan_matrix",
    "replay",
    "run_cell",
    "run_matrix",
]
