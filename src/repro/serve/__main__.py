"""CLI for the sharded ORAM service: serve / bench / conformance.

Usage::

    PYTHONPATH=src python -m repro.serve serve  [--shards N] [--variant V]
    PYTHONPATH=src python -m repro.serve bench  [--shards N] [--clients C]
                                                [--ops N] [--json]
    PYTHONPATH=src python -m repro.serve conformance [--shards N]
                                                [--variant V] [--rounds R]
                                                [--point LABEL] [--seed S]

``serve`` runs an interactive service on stdin (PUT/GET/DEL/STATUS/QUIT),
executing each line inline as a one-request batch; ``bench`` runs one
modeled load point; ``conformance`` runs a service-crash cell and exits
non-zero on violations.  ``python -m repro.exec status --journal PATH``
summarizes a bench journal.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence


def _cmd_serve(args) -> int:
    from repro.serve.frontend import ShardedKVService

    service = ShardedKVService(
        shards=args.shards, variant=args.variant, height=args.height,
        batch_max=args.batch_max, seed=args.seed,
        window=args.window, integrity=args.integrity,
    ).start()
    print(f"serving {args.shards} x {args.variant} shard(s); "
          "commands: PUT <key> <value> | GET <key> | DEL <key> | "
          "STATUS | QUIT", flush=True)
    try:
        for line in sys.stdin:
            parts = line.strip().split(None, 2)
            if not parts:
                continue
            verb = parts[0].upper()
            try:
                if verb == "QUIT":
                    break
                elif verb == "PUT" and len(parts) == 3:
                    service.put(parts[1], parts[2].encode())
                    print("OK", flush=True)
                elif verb == "GET" and len(parts) >= 2:
                    print(service.get(parts[1]).decode("utf-8", "replace"),
                          flush=True)
                elif verb == "DEL" and len(parts) >= 2:
                    service.delete(parts[1])
                    print("OK", flush=True)
                elif verb == "STATUS":
                    print(json.dumps(service.status(), indent=2,
                                     sort_keys=True), flush=True)
                else:
                    print(f"ERR unknown command {line.strip()!r}", flush=True)
            except KeyError as error:
                print(f"ERR missing key {error.args[0]!r}", flush=True)
            except BrokenPipeError:
                break  # stdout consumer went away
            except Exception as error:  # surface, keep serving
                print(f"ERR {type(error).__name__}: {error}", flush=True)
    except BrokenPipeError:
        pass
    finally:
        service.stop()
    return 0


def _cmd_bench(args) -> int:
    from repro.serve.loadgen import run_load

    result = run_load(
        shards=args.shards, clients=args.clients, total_ops=args.ops,
        variant=args.variant, height=args.height, batch_max=args.batch_max,
        seed=args.seed, window=args.window, integrity=args.integrity,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"{result.shards} shard(s), {result.clients} client(s), "
              f"{result.operations} ops:")
        print(f"  modeled {result.modeled_rps:,.1f} req/s   "
              f"p50 {result.modeled_p50_us:.2f}us   "
              f"p99 {result.modeled_p99_us:.2f}us")
        print(f"  batches {result.batches} (mean fill "
              f"{result.mean_batch_fill:.2f}), coalesced "
              f"{result.coalesced_reads}r/{result.coalesced_writes}w, "
              f"wall {result.wall_rps:,.1f} req/s")
    return 0


def _cmd_conformance(args) -> int:
    from repro.serve.conformance import run_service_cell

    result = run_service_cell(
        shards=args.shards, variant=args.variant, point=args.point,
        rounds=args.rounds, seed=args.seed, height=args.height,
        batch_max=args.batch_max, integrity=args.integrity,
        window=args.window,
    )
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    if not result.consistent:
        print(f"FAIL: {len(result.violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"consistent: {result.crashes_fired} injected + "
          f"{result.quiescent_crashes} quiescent crash(es), "
          f"{result.acknowledged}/{result.operations} ops acknowledged")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--shards", type=int, default=2)
        p.add_argument("--variant", default="ps")
        p.add_argument("--height", type=int, default=8)
        p.add_argument("--batch-max", type=int, default=8)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--window", type=int, default=1,
                       help="in-flight access window depth per shard "
                            "(1 = serial pipeline)")
        p.add_argument("--integrity", action="store_true",
                       help="attach the crash-consistent integrity domain "
                            "to every shard (docs/INTEGRITY.md)")

    p_serve = sub.add_parser("serve", help="interactive service on stdin")
    common(p_serve)
    p_serve.set_defaults(fn=_cmd_serve)

    p_bench = sub.add_parser("bench", help="one modeled load point")
    common(p_bench)
    p_bench.add_argument("--clients", type=int, default=8)
    p_bench.add_argument("--ops", type=int, default=200)
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(fn=_cmd_bench)

    p_conf = sub.add_parser("conformance", help="service-crash cell")
    common(p_conf)
    p_conf.add_argument("--rounds", type=int, default=3)
    p_conf.add_argument("--point", default=None,
                        help="pin the crash point (default: fuzz)")
    # A conformance cell's own geometry: a small tree, short batches.
    p_conf.set_defaults(fn=_cmd_conformance, height=6, batch_max=4)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
