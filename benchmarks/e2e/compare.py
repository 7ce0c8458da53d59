"""Compare two commits on the end-to-end benchmark, or record a baseline.

Subcommands (run from the repository root)::

    python3 benchmarks/e2e/compare.py run PARENT_ROOT CHANGE_ROOT
        [--workload NAME ...] [--pairs 10] [--seed 7] [--out FILE]
    python3 benchmarks/e2e/compare.py report runs.jsonl
    python3 benchmarks/e2e/compare.py record [--root .] [--runs 3] [--seed 7]
        [--out benchmarks/e2e/baseline.json]

``run`` executes ``run.py`` alternately in two source trees (the parent
first in even pairs, the change first in odd ones), every run with the
same seed, and reports; ``report`` re-reports saved runs.  For each
workload and end-to-end metric it prints each side's median and
quartiles and one verdict, by these rules:

* ``regression`` — the change's median is worse than the parent's by
  more than the metric's ``bound`` in BENCHMARK.json;
* ``unresolved`` — otherwise, the parent's run-to-run spread (quartile
  distance over median) exceeds the bound, unless every change run reads
  better than every parent run;
* ``gain`` — otherwise, the change wins at least 9 of 10 pairs (ties
  count for neither) and the medians differ by more than the parent's
  quartile distance;
* ``unchanged`` — otherwise.

Exit status 1 when any verdict is ``regression`` or any run was not
correct.  ``record`` writes the median and quartile distance of
``--runs`` untraced runs plus one traced run per workload, with the
commit they measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from metrics import load_benchmark

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def run_once(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One ``run.py`` invocation in ``root``; returns its JSON result line."""
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    child = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = child.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} in {root} printed no result "
                           f"(exit {child.returncode}):\n{child.stderr[-2000:]}") from None


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """Classify one metric on one workload (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = quartiles(parent)
    iqr = p_q[2] - p_q[0]
    scale = abs(p_med) or 1.0
    if sign * (p_med - c_med) / scale > bound:
        return "regression"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if iqr / scale > bound and not all_better:
        return "unresolved"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if wins >= 0.9 * min(len(parent), len(change)) and sign * (c_med - p_med) > iqr:
        return "gain"
    return "unchanged"


def report(records: List[dict]) -> int:
    """Print the per-workload comparison table; non-zero on a regression."""
    declared = load_benchmark()["end_to_end"]
    status = 0
    workloads = sorted({record["workload"] for record in records})
    for workload in workloads:
        sides: Dict[str, List[dict]] = {"parent": [], "change": []}
        for record in sorted(records, key=lambda r: r["pair"]):
            if record["workload"] == workload:
                sides[record["side"]].append(record["result"])
        wrong = {side: sum(not r["correct"] for r in runs) for side, runs in sides.items()}
        print(f"## {workload}: {len(sides['parent'])} parent / {len(sides['change'])} "
              f"change runs; incorrect runs: parent {wrong['parent']}, "
              f"change {wrong['change']}")
        if wrong["change"]:
            status = 1
        print(f"{'metric':20s} {'parent median [q1, q3]':>36s} "
              f"{'change median [q1, q3]':>36s} {'delta':>8s} {'wins':>6s}  verdict")
        for metric in declared:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in sides["parent"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            if not parent or not change:
                continue
            sign = 1.0 if metric["better"] == "higher" else -1.0
            p_q, c_q = quartiles(parent), quartiles(change)
            p_med, c_med = statistics.median(parent), statistics.median(change)
            wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
            result = verdict(parent, change, metric["better"], metric["bound"])
            if result == "regression":
                status = 1
            change_pct = (c_med - p_med) / abs(p_med) * 100 if p_med else 0.0
            print(f"{name:20s} {p_med:14.4f} [{p_q[0]:9.4g}, {p_q[2]:9.4g}] "
                  f"{c_med:14.4f} [{c_q[0]:9.4g}, {c_q[2]:9.4g}] "
                  f"{change_pct:+7.2f}% {wins:3d}/{min(len(parent), len(change)):<2d}  "
                  f"{result} (bound {metric['bound']:.0%})")
    return status


def command_run(args) -> int:
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    workloads = args.workload or [w["name"] for w in load_benchmark()["workloads"]]
    records = []
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("w") as out:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(roots[side], workload, args.seed)
                    record = {"side": side, "pair": pair, "workload": workload,
                              "seed": args.seed, "result": result}
                    records.append(record)
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"# pair {pair} {workload} {side}: correct {result['correct']}",
                          flush=True)
    return report(records)


def command_report(args) -> int:
    with open(args.runs) as handle:
        return report([json.loads(line) for line in handle if line.strip()])


def command_record(args) -> int:
    benchmark = load_benchmark()
    root = args.root.resolve()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    payload = {
        "commit": commit,
        "seed": args.seed,
        "untraced_runs": args.runs,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    status = 0
    for workload in benchmark["workloads"]:
        name = workload["name"]
        runs = [run_once(root, name, args.seed) for _ in range(args.runs)]
        traced = run_once(root, name, args.seed, trace=1)
        if not all(run["correct"] for run in runs + [traced]):
            status = 1
        end_to_end = {}
        for metric in benchmark["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            q = quartiles(values)
            end_to_end[metric["name"]] = {
                "median": statistics.median(values), "iqr": q[2] - q[0],
                "unit": metric["unit"], "values": values}
        payload["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": {key: value["value"] for key, value in traced["metrics"].items()},
        }
        print(f"# recorded {name}", flush=True)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="alternate runs of two trees, then report")
    run.add_argument("parent_root", type=Path)
    run.add_argument("change_root", type=Path)
    run.add_argument("--workload", action="append",
                     help="workload to compare (repeatable; default: all)")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--out", type=Path, default=HERE / "out" / "compare_runs.jsonl",
                     help="where every run's result is saved (default: %(default)s)")
    run.set_defaults(handler=command_run)
    rep = commands.add_parser("report", help="re-report saved runs")
    rep.add_argument("runs")
    rep.set_defaults(handler=command_report)
    record = commands.add_parser("record", help="record baseline numbers")
    record.add_argument("--root", type=Path, default=Path("."))
    record.add_argument("--runs", type=int, default=3)
    record.add_argument("--seed", type=int, default=7)
    record.add_argument("--out", default=str(HERE / "baseline.json"))
    record.set_defaults(handler=command_record)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
