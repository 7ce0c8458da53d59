"""Crash-fuzzing campaigns: randomized end-to-end consistency validation.

The crash matrix (:mod:`repro.crashsim.matrix`) pins every cell to one
checkpoint; a campaign goes further — randomized (workload, crash point,
crash timing) combinations against one variant, with the consistency
oracle sweeping the whole logical span after each power cycle.  This is
the Jiang et al. "crash consistency validation" style of testing the
paper cites [33], applied to our own implementation.

A campaign is a conformance cell with a random crash point per round:
:func:`repro.crashsim.conformance.run_cell` with ``point=None``.  The
matrix pins one label for every round of a cell, so only a campaign
crashes a recovered system at a different point each round.  CLI::

    python -m repro.crashsim --variant ps --rounds 50
    python -m repro.crashsim --variant rcr-ps --rounds 20 --seed 9
    python -m repro.crashsim --variant ps --integrity --rounds 20
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.crashsim.conformance import run_cell
from repro.engine.registry import variant_specs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.crashsim", description=__doc__
    )
    # Every registered variant is a legal target: volatile designs are
    # fuzzed for *honest* recovery failure, consistent ones for the full
    # oracle.  (The choices used to be a hardcoded five-name subset.)
    parser.add_argument("--variant", default="ps",
                        choices=[spec.name for spec in variant_specs()])
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--height", type=int, default=6)
    parser.add_argument("--small-wpq", action="store_true",
                        help="4-entry WPQs (ordered multi-round evictions)")
    parser.add_argument("--integrity", action="store_true",
                        help="attach the integrity domain (docs/INTEGRITY.md)")
    args = parser.parse_args(argv)

    result = run_cell(
        args.variant,
        point=None,  # random checkpoint each round
        wpq="small" if args.small_wpq else "default",
        rounds=args.rounds, seed=args.seed, height=args.height,
        integrity=args.integrity,
    )
    print(f"variant:            {result.variant}"
          f"{' + integrity' if result.integrity else ''}")
    print(f"rounds:             {result.rounds}")
    print(f"operations:         {result.operations}")
    print(f"mid-access crashes: {result.crashes_fired}")
    print(f"quiescent crashes:  {result.quiescent_crashes}")
    print(f"wall time:          {result.wall_seconds:.1f}s")
    if result.consistent:
        print("verdict:            CONSISTENT — no violations")
        return 0
    print("verdict:            VIOLATIONS FOUND")
    for violation in result.violations:
        print(f"  {violation}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
