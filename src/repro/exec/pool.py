"""Process-pool sweep orchestrator.

``run_sweep`` takes a list of independent :class:`SweepPoint`\\ s and
returns one :class:`PointOutcome` per point, in input order, regardless of
how the points were scheduled.  Three properties define it:

* **Determinism** — a point's result depends only on the point (variant,
  workload, config, trace length, seed), never on worker assignment or
  completion order.  Workers rebuild the workload trace from the point's
  seed, so parallel results are bit-identical to the serial path's.
* **Fault isolation** — a point that raises, or whose worker process
  dies, is recorded as a :class:`PointError` carrying the worker's
  traceback; the rest of the sweep completes, and
  :func:`collect_results` then raises naming every failed point.
* **Clean interrupt** — Ctrl-C kills outstanding workers, journals a
  ``sweep_interrupted`` event, flushes, and re-raises, so nothing is left
  orphaned and the journal reflects exactly what completed.

Workers are one process per point (fork start method where available):
points are seconds-long simulations, so process spin-up is noise, and a
dedicated process lets the sweep survive a worker dying mid-point.
"""

from __future__ import annotations

import multiprocessing
import signal
import textwrap
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.exec.faults import KIND_CRASH, KIND_EXCEPTION, PointError
from repro.exec.journal import RunJournal
from repro.sim.results import RunResult


@dataclass(frozen=True)
class SweepPoint:
    """One independent unit of sweep work: a (variant, workload, config) run."""

    variant: str
    workload: str
    config: SystemConfig
    references: int
    warmup: int = 0
    seed: int = 7

    @property
    def label(self) -> str:
        return f"{self.variant}/{self.workload}"


@dataclass
class PointOutcome:
    """What happened to one point: exactly one of result/error is set."""

    point: SweepPoint
    result: Optional[RunResult] = None
    error: Optional[PointError] = None
    wall_s: float = 0.0
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def execute_point(point: SweepPoint) -> RunResult:
    """Run one point from scratch — the function worker processes execute.

    Rebuilds the trace from (workload, length, seed) rather than shipping
    it across the process boundary; generation is deterministic, so this
    preserves bit-identity with the serial path at a fraction of the IPC.
    """
    from repro.sim.runner import run_experiment
    from repro.workloads.spec import spec_workload

    trace = spec_workload(
        point.workload,
        references=point.references + point.warmup,
        seed=point.seed,
    )
    return run_experiment(point.variant, point.config, trace, point.warmup)


def collect_results(outcomes: Sequence[PointOutcome]) -> List[RunResult]:
    """Every point's result, in order; raises if any point failed.

    The ``RuntimeError`` names each failed ``variant/workload`` and
    carries its worker's traceback.
    """
    errors = [o.error for o in outcomes if o.error is not None]
    if errors:
        raise RuntimeError("sweep had failed points:\n" + "\n".join(
            f"  {error}\n{textwrap.indent(error.traceback, '    ')}"
            for error in errors
        ))
    return [o.result for o in outcomes]


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    journal: Optional[RunJournal] = None,
    executor: Callable[[SweepPoint], RunResult] = execute_point,
) -> List[PointOutcome]:
    """Run every point; never aborts on a point failure.

    ``jobs <= 1`` runs in-process (no worker processes); ``jobs > 1`` fans
    out across processes.  KeyboardInterrupt cancels outstanding points,
    flushes the journal, and re-raises.
    """
    outcomes: List[Optional[PointOutcome]] = [None] * len(points)
    if journal is not None:
        journal.emit("sweep_started", points=len(points), jobs=jobs)
    sweep_start = time.monotonic()

    try:
        if jobs <= 1:
            _run_serial(points, outcomes, journal, executor)
        else:
            _run_parallel(points, outcomes, jobs, journal, executor)
    except KeyboardInterrupt:
        if journal is not None:
            journal.emit("sweep_interrupted")
            journal.close()
        raise

    if journal is not None:
        failed = sum(1 for o in outcomes if not o.ok)
        journal.emit(
            "sweep_finished",
            finished=len(outcomes) - failed, failed=failed,
            wall_s=time.monotonic() - sweep_start,
        )
    return outcomes


def _record(
    outcomes: List[Optional[PointOutcome]],
    index: int,
    outcome: PointOutcome,
    journal: Optional[RunJournal],
) -> None:
    outcomes[index] = outcome
    if journal is None:
        return
    point = outcome.point
    if outcome.ok:
        journal.emit(
            "point_finished", variant=point.variant, workload=point.workload,
            wall_s=outcome.wall_s, worker=outcome.worker,
        )
    else:
        journal.emit(
            "point_failed", variant=point.variant, workload=point.workload,
            kind=outcome.error.kind, error=outcome.error.message,
        )


def _run_serial(
    points: Sequence[SweepPoint],
    outcomes: List[Optional[PointOutcome]],
    journal: Optional[RunJournal],
    executor: Callable[[SweepPoint], RunResult],
) -> None:
    for index, point in enumerate(points):
        if journal is not None:
            journal.emit(
                "point_started",
                variant=point.variant, workload=point.workload, worker=0,
            )
        started = time.monotonic()
        try:
            outcome = PointOutcome(point, result=executor(point), worker=0)
            outcome.wall_s = time.monotonic() - started
        except KeyboardInterrupt:
            raise
        except BaseException as exc:
            outcome = PointOutcome(point, error=PointError(
                point.variant, point.workload, KIND_EXCEPTION,
                f"{type(exc).__name__}: {exc}", traceback.format_exc(),
            ))
        _record(outcomes, index, outcome, journal)


@dataclass
class _Attempt:
    """Parent-side state of one in-flight worker process."""

    index: int
    point: SweepPoint
    process: multiprocessing.Process
    conn: connection.Connection
    worker: int
    started: float = field(default_factory=time.monotonic)


def _sigint_guard():
    """Mask SIGINT for the spawn critical section; returns the unmask set.

    A Ctrl-C landing between ``Process.start()`` and the ``active[...]``
    bookkeeping insert would orphan the fresh child: ``_terminate_all``
    only reaps registered attempts, and an interrupt *inside* ``start()``
    can even fire before multiprocessing registers the child for its own
    atexit cleanup.  Masking is per-thread and only legal from the main
    thread; elsewhere (or without pthread_sigmask) the guard is a no-op
    and the pre-existing narrow race remains.
    """
    if not hasattr(signal, "pthread_sigmask"):
        return None
    if threading.current_thread() is not threading.main_thread():
        return None
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    return None if signal.SIGINT in previous else {signal.SIGINT}


def _sigint_release(unmask) -> None:
    """Restore SIGINT delivery; a pending interrupt fires right here."""
    if unmask:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, unmask)


def _child_main(executor, point, conn) -> None:
    """Worker entry: run the point, ship back ``('ok', result)`` or
    ``('err', (message, traceback))``."""
    # The fork inherited the parent's spawn-time signal mask; the child
    # must take interrupts normally (terminate/kill cleanup aside).
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    try:
        result = executor(point)
        conn.send(("ok", result))
    except BaseException as exc:  # a failing point must still report
        try:
            conn.send(("err", (f"{type(exc).__name__}: {exc}",
                               traceback.format_exc())))
        except OSError:
            pass
    finally:
        conn.close()


def _run_parallel(
    points: Sequence[SweepPoint],
    outcomes: List[Optional[PointOutcome]],
    jobs: int,
    journal: Optional[RunJournal],
    executor: Callable[[SweepPoint], RunResult],
) -> None:
    # fork keeps worker launch cheap and lets tests inject closures as
    # executors; fall back to the platform default elsewhere.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    pending = deque(range(len(points)))
    free_workers = list(range(jobs - 1, -1, -1))
    active: Dict[connection.Connection, _Attempt] = {}

    def spawn(index: int) -> None:
        point = points[index]
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main, args=(executor, point, child_conn), daemon=True
        )
        worker = free_workers.pop()
        # Start + bookkeeping must be atomic w.r.t. Ctrl-C: see
        # _sigint_guard.  A pending SIGINT delivers at the release, when
        # the attempt is registered and _terminate_all can reap it.
        unmask = _sigint_guard()
        try:
            process.start()
            child_conn.close()
            active[parent_conn] = _Attempt(
                index, point, process, parent_conn, worker
            )
        finally:
            _sigint_release(unmask)
        if journal is not None:
            journal.emit(
                "point_started",
                variant=point.variant, workload=point.workload, worker=worker,
            )

    def retire(state: _Attempt, kind: str, payload) -> None:
        """Handle one finished attempt: a result or an error record."""
        state.conn.close()
        free_workers.append(state.worker)
        if kind == "ok":
            _record(
                outcomes, state.index,
                PointOutcome(
                    state.point, result=payload,
                    wall_s=time.monotonic() - state.started,
                    worker=state.worker,
                ),
                journal,
            )
            return
        if kind == "err":
            message, trace = payload
            error = PointError(state.point.variant, state.point.workload,
                               KIND_EXCEPTION, message, trace)
        else:
            error = PointError(state.point.variant, state.point.workload,
                               KIND_CRASH, payload)
        _record(outcomes, state.index, PointOutcome(state.point, error=error),
                journal)

    try:
        while pending or active:
            while pending and free_workers:
                spawn(pending.popleft())

            # Blocks until a worker reports or dies (pipe EOF).
            ready = connection.wait(list(active))
            for conn in ready:
                state = active.pop(conn)
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    kind, payload = (
                        KIND_CRASH,
                        f"worker died (exitcode={state.process.exitcode})",
                    )
                state.process.join()
                retire(state, kind, payload)
    except KeyboardInterrupt:
        _terminate_all(active)
        raise
    except BaseException:
        _terminate_all(active)
        raise


def _terminate_all(active: Dict[connection.Connection, _Attempt]) -> None:
    """Kill and reap every outstanding worker (interrupt/teardown path)."""
    for state in active.values():
        if state.process.is_alive():
            state.process.terminate()
    for state in active.values():
        state.process.join(timeout=5)
        if state.process.is_alive():
            state.process.kill()
            state.process.join()
        state.conn.close()
    active.clear()
