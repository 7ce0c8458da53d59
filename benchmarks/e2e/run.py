"""End-to-end benchmark: from a ``repro.serve`` request down to NVM lines.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace 0|1] [--trace-dir DIR]

``--seconds`` sizes the measured work (``seconds`` times each workload's
calibrated rate), so a run's work, and every modeled result, is a pure
function of ``(seed, seconds)``; ``--seconds 0.2`` is a smoke run.

With ``--workload`` it runs one workload in this process and prints, last,
one JSON line ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0`` — three repetitions, each a timed set-up of a fresh
  system and a timed measurement on its own inputs; report every
  end-to-end metric;
* ``--trace 1`` — measure repetition 0 untraced and traced (a span on
  every layer boundary), twice each, alternating, every time on a fresh
  system; report every per-layer metric and write the spans (JSONL and
  Chrome trace-event JSON) to ``--trace-dir``.  Traced runs must
  reproduce the untraced modeled results and stats snapshots exactly.

Without ``--workload`` it runs every workload, one at a time, each in its
own child process (so ``peak_rss_mb`` is per workload).

Exit status: 0 when every output checked correct, 1 when not (the JSON
line says why), 2 when the source tree is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
DEFAULT_TRACE_DIR = HERE / "out"
#: The paper's PS-ORAM execution time normalized to Path ORAM (Fig. 5a).
PAPER_EXEC_NORM = 1.0429
#: A child workload run may take this long before it is stopped.
CHILD_TIMEOUT_S = 900


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run: end-to-end metrics plus the run's record."""
    from metrics import end_to_end
    from workloads import REPS, WORKLOADS

    workload = WORKLOADS[name](seed, seconds)
    setup_seconds: List[float] = []
    reps = []
    for rep in range(REPS):
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(rep)
        setup_seconds.append(time.perf_counter() - started)
        reps.append(workload.measure(state))
        state = None
    samples = sum(len(rep.samples_us) for rep in reps)
    info = reps[0].info + [
        f"{REPS} repetitions, each a fresh set-up and its own inputs: setup_s is "
        f"their median, wall_ops_per_s the best, modeled metrics pool them "
        f"(p99 over {samples} samples)"]
    exec_norms = [rep.layer["exec_norm"] for rep in reps if "exec_norm" in rep.layer]
    if exec_norms:
        exec_norm = statistics.geometric_mean(exec_norms)
        info.append(f"modeled exec time ps/baseline (geomean): {exec_norm:.4f}; paper "
                    f"{PAPER_EXEC_NORM}, error {exec_norm / PAPER_EXEC_NORM - 1:+.2%}")
    return {
        "metrics": end_to_end(setup_seconds, reps),
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "problems": [problem for rep in reps for problem in rep.failures],
        "info": info,
    }


def run_traced(name: str, seed: int, seconds: float,
               trace_dir: Optional[Path]) -> dict:
    """One ``--trace 1`` run: per-layer metrics plus the run's record.

    Repetition 0 is measured untraced, traced, untraced and traced again,
    each time on a fresh system.  The overhead ratio compares the fastest
    of each kind, and the per-layer metrics come from the faster traced
    run: host noise here comes in stretches that slow one measurement by
    up to 1.7x, and it never speeds one up.
    """
    from metrics import per_layer
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, seconds)
    plain, traced = [], []
    for _ in range(2):
        gc.collect()
        plain.append(workload.measure(workload.setup(0)))
        gc.collect()
        with Tracer() as tracer:
            traced.append((workload.measure(workload.setup(0), tracer=tracer), tracer))
    runs = plain + [run for run, _ in traced]
    problems = [problem for run in runs for problem in run.failures]
    if any(run.modeled() != plain[0].modeled() for run in runs):
        problems.append("the traced run changed modeled results or stats snapshots")
    violations = sum(recorder.violations for run, _ in traced for recorder in run.recorders)
    if violations:
        problems.append(f"{violations} accesses' phase cycles do not sum to "
                        "finish_cycle - start_cycle")
    best, tracer = min(traced, key=lambda pair: pair[0].wall_s)
    fastest_plain = min(run.wall_s for run in plain)
    info = [f"fastest traced {best.wall_s:.2f} s vs untraced {fastest_plain:.2f} s for "
            f"the same work; {len(tracer.spans)} spans kept, "
            f"{tracer.dropped_spans} dropped"]
    if trace_dir is not None:
        files = tracer.write(trace_dir, name)
        info.append("spans written to " + ", ".join(str(path) for path in files))
    return {
        "metrics": per_layer(best, tracer, best.wall_s / fastest_plain),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "problems": problems,
        "info": info + best.info,
    }


def run_workload(args) -> int:
    from metrics import CLOCKS, check_names, load_benchmark

    benchmark = load_benchmark()
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        record = run_traced(args.workload, args.seed, args.seconds, args.trace_dir)
    else:
        record = run_untraced(args.workload, args.seed, args.seconds)
    check_names(record["metrics"], declared)
    correct = not record["problems"] and record["failed"] == 0
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in record["info"]:
        print(f"#   {line}")
    for problem in record["problems"]:
        print(f"# PROBLEM: {problem}")
    print(f"# attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {correct}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = record["metrics"][name]
        clock = CLOCKS.get(name, "per-layer")
        print(f"#   {name:48s} {value:16.6f} {unit:14s} {clock}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, one child process each, one after the other."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--trace-dir", str(args.trace_dir)]
        started = time.perf_counter()
        try:
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                   timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"# {name}: stopped after {CHILD_TIMEOUT_S} s")
            status = 1
            continue
        print(child.stdout, end="")
        print(f"# {name}: exit {child.returncode} after "
              f"{time.perf_counter() - started:.1f} s")
        status = status or child.returncode
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: all, "
                        "each in its own process)")
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed (default: %(default)s; 11 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="size of the measured work, in seconds of the reference "
                             "host (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=DEFAULT_TRACE_DIR,
                        help="where a traced run writes its spans "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from metrics import load_benchmark
    from workloads import WORKLOADS

    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
