"""Outside-in span tracer for the end-to-end benchmark's traced run.

Spans are recorded around calls into each layer's public functions, from
this file: nothing under ``src/`` knows it is being traced.  Wrappers are
installed on the classes (and one module global) for the duration of the
traced run and removed afterwards; while ``Tracer.active`` is false they
pass straight through.

Each finished span is ``(id, name, start_ns, end_ns, parent_id, rid)``:
``name`` is ``<layer>:<function>``, ``parent_id`` the enclosing span
(``-1`` for the root) and ``rid`` the request id the workload driver set
when the span opened.  Self time is a span's duration minus the time its
child spans cover, accumulated per layer as spans close.

Three traps shape the wrapper list (see README.md, "Traced run"):

1. ``NVMMainMemory.issue`` is wrapped on the class, never on an instance:
   ``issue_path`` takes ``"issue" in self.__dict__`` as the sign of an
   address-translation layer and would reroute every line through it.
2. ``WindowScheduler.__setattr__`` forwards unknown names to the inner
   engine, so the scheduler is wrapped on its class as well.
3. Pipeline phase boundaries come from the engine's existing
   ``crash_hook`` checkpoint listener (:class:`PhaseRecorder`).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

#: Pipeline phases in access order (``repro.engine.base.PIPELINE_PHASES``
#: without the ``phase:`` prefix).
PHASES = (
    "position-lookup",
    "remap",
    "fetch",
    "absorb",
    "program-op",
    "evict-plan",
    "write-back",
    "persist-commit",
)

#: Layers in top-to-bottom order; ``bench`` is the workload driver itself.
LAYERS = (
    "bench",
    "sim.cpu",
    "cache",
    "serve.frontend",
    "serve.worker",
    "serve.batcher",
    "apps.kvstore",
    "engine.sched",
    "engine",
    "engine.ps",
    "oram.block",
    "crypto",
    "mem",
    "integrity",
)


def _wrap_targets():
    """``(owner, attribute, layer)`` for every traced call boundary."""
    from repro.apps.kvstore import ObliviousKVStore
    from repro.cache.hierarchy import CacheHierarchy
    from repro.core.drainer import Drainer
    from repro.crypto.engine import CryptoEngine
    from repro.engine.base import AccessEngine
    from repro.engine.policy import PersistencePolicy, VolatilePolicy
    from repro.engine.ps import DirtyEntryPSPolicy, RecursiveDirtyEntryPSPolicy
    from repro.engine.sched import WindowScheduler
    from repro.integrity.domain import IntegrityDomain
    from repro.mem.controller import NVMMainMemory
    from repro.oram.block import BlockCodec
    from repro.serve import worker as worker_module
    from repro.serve.frontend import ShardedKVService
    from repro.serve.worker import ShardWorker
    from repro.sim.system import SimulatedSystem

    targets = [
        (SimulatedSystem, "step", "sim.cpu"),
        (CacheHierarchy, "reference", "cache"),
        (ShardedKVService, "run_batches", "serve.frontend"),
        (ShardWorker, "execute_batch", "serve.worker"),
        (ShardWorker, "drain", "serve.worker"),
        (worker_module, "plan_batch", "serve.batcher"),
        (ObliviousKVStore, "get", "apps.kvstore"),
        (ObliviousKVStore, "put", "apps.kvstore"),
        (ObliviousKVStore, "delete", "apps.kvstore"),
        (WindowScheduler, "access", "engine.sched"),
        (AccessEngine, "access", "engine"),
        (AccessEngine, "_plan_eviction", "engine"),
        (Drainer, "flush", "engine.ps"),
        (BlockCodec, "encode", "oram.block"),
        (BlockCodec, "encode_path", "oram.block"),
        (BlockCodec, "decode", "oram.block"),
        (BlockCodec, "decode_path", "oram.block"),
        (BlockCodec, "decode_header", "oram.block"),
        (CryptoEngine, "encrypt", "crypto"),
        (CryptoEngine, "decrypt", "crypto"),
        (CryptoEngine, "encrypt_batch", "crypto"),
        (CryptoEngine, "decrypt_batch", "crypto"),
        (NVMMainMemory, "issue", "mem"),
        (NVMMainMemory, "issue_path", "mem"),
        (NVMMainMemory, "access_batch", "mem"),
        (IntegrityDomain, "on_persist_commit", "integrity"),
        # Bound into memory.line_observer at install time, so this must be
        # patched before the traced run builds its system.
        (IntegrityDomain, "_observe", "integrity"),
    ]
    policy_methods = ("remap", "pre_relabel", "post_relabel", "evict")
    for cls in (PersistencePolicy, VolatilePolicy, DirtyEntryPSPolicy,
                RecursiveDirtyEntryPSPolicy):
        targets.extend(
            (cls, name, "engine.ps") for name in policy_methods if name in vars(cls)
        )
    return targets


class Tracer:
    """In-memory span recorder plus per-layer self-time accounting."""

    def __init__(self, max_spans: int = 100_000):
        self.active = False
        #: Request id stamped on spans opened from now on (set by drivers).
        self.rid = -1
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        #: Wall time spent inside :meth:`root` (the traced measurement).
        self.wall_ns = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter_ns(), 0,
                 self._stack[-1][0] if self._stack else -1, self.rid]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[2]
        self.self_ns[layer] += duration - frame[3]
        self.calls[frame[1]] += 1
        if self._stack:
            self._stack[-1][3] += duration
        # Keep the first spans *opened*: a kept span's parent opened
        # earlier, so it is kept too, and the root always is.
        if frame[0] < self.max_spans:
            self.spans.append((frame[0], frame[1], frame[2], end, frame[4], frame[5]))
        else:
            self.dropped_spans += 1

    def wrap(self, fn, layer: str):
        """A pass-through wrapper that records a span while active."""
        name = f"{layer}:{fn.__name__}"
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, layer)

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self):
        """The ``bench`` root span, with tracing switched on inside it."""
        self.active = True
        frame = self._open("bench:measure")
        try:
            yield self
        finally:
            self._close(frame, "bench")
            self.active = False
            self.wall_ns += time.perf_counter_ns() - frame[2]

    # -- install / remove -------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every call boundary of :func:`_wrap_targets`."""
        for owner, attr, layer in _wrap_targets():
            original = vars(owner)[attr]  # every target defines its own
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- export -----------------------------------------------------------

    def write(self, directory: Path, stem: str) -> List[Path]:
        """Write the spans as JSONL and as Chrome trace-event JSON."""
        directory.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda span: span[2])
        origin = spans[0][2] if spans else 0
        jsonl = directory / f"{stem}.spans.jsonl"
        with jsonl.open("w") as handle:
            for span_id, name, start, end, parent, rid in spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start - origin,
                    "end_ns": end - origin, "parent": parent, "rid": rid,
                }) + "\n")
        chrome = directory / f"{stem}.chrome.json"
        events = [
            {"name": name, "cat": name.split(":")[0], "ph": "X", "pid": 1,
             "tid": 1, "ts": (start - origin) / 1000.0,
             "dur": (end - start) / 1000.0,
             "args": {"id": span_id, "parent": parent, "rid": rid}}
            for span_id, name, start, end, parent, rid in spans
        ]
        with chrome.open("w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns",
                       "otherData": {"dropped_spans": self.dropped_spans}}, handle)
        return [jsonl, chrome]


class PhaseRecorder:
    """Per-phase modeled cycles and wall time of one engine's accesses.

    Listens on the engine's ``crash_hook`` checkpoint announcements.  Phase
    ``p`` runs from its checkpoint to the next phase checkpoint (the last
    to the access's finish); ``position-lookup`` is charged from the
    access's ``start_cycle``, so the phase cycles of an access sum exactly
    to ``finish_cycle - start_cycle``.  Any access where they do not (or
    where a phase is negative) is counted in :attr:`violations`.
    """

    def __init__(self, engine, tracer: Tracer):
        self.engine = engine
        self.tracer = tracer
        self.marks: List[tuple] = []
        self.cycles: Dict[str, int] = dict.fromkeys(PHASES, 0)
        self.wall_ns: Dict[str, int] = dict.fromkeys(PHASES, 0)
        self.accesses = 0
        self.access_cycles = 0
        self.violations = 0
        engine.crash_hook = self._hook

    def _hook(self, label: str) -> None:
        if self.tracer.active and label.startswith("phase:"):
            self.marks.append((label[6:], self.engine.now, time.perf_counter_ns()))

    def account(self, result, wall_start: int, wall_end: int) -> None:
        """Split one finished access into its phases."""
        marks = self.marks
        self.marks = []
        if not marks:
            return
        total = 0
        negative = False
        for index, (phase, cycle, ns) in enumerate(marks):
            begin_cycle = result.start_cycle if index == 0 else cycle
            begin_ns = wall_start if index == 0 else ns
            if index + 1 < len(marks):
                end_cycle, end_ns = marks[index + 1][1], marks[index + 1][2]
            else:
                end_cycle, end_ns = result.finish_cycle, wall_end
            cycles = end_cycle - begin_cycle
            negative = negative or cycles < 0
            total += cycles
            self.cycles[phase] += cycles
            self.wall_ns[phase] += end_ns - begin_ns
        self.accesses += 1
        self.access_cycles += result.finish_cycle - result.start_cycle
        if negative or total != result.finish_cycle - result.start_cycle:
            self.violations += 1


def attach_phase_recorders(tracer: Tracer, engines) -> List[PhaseRecorder]:
    """Record phases on ``engines`` (bare engines, not schedulers).

    The engine's ``access`` is wrapped on the instance — safe for a bare
    engine, unlike the scheduler (trap 2) — to bracket each access.  The
    engines are the traced run's own and are discarded after it, so
    nothing is unhooked.
    """
    recorders = []
    for engine in engines:
        recorder = PhaseRecorder(engine, tracer)
        inner = engine.access

        def access(*args, _inner=inner, _recorder=recorder, **kwargs):
            if not tracer.active:
                return _inner(*args, **kwargs)
            _recorder.marks = []
            start = time.perf_counter_ns()
            result = _inner(*args, **kwargs)
            _recorder.account(result, start, time.perf_counter_ns())
            return result

        engine.access = access
        recorders.append(recorder)
    return recorders

