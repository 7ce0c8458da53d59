"""``python -m repro.exec`` — inspect orchestrator state.

Subcommands::

    python -m repro.exec status               # summarize the latest run
    python -m repro.exec status --all         # ... every run in the journal
    python -m repro.exec status --journal P   # a specific journal file
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.exec.journal import (
    default_journal_path,
    format_status,
    last_run_events,
    read_events,
    summarize,
)


def _cmd_status(args) -> int:
    events = read_events(args.journal)
    if not events:
        print(f"no journal events at {args.journal}")
        return 1
    if not args.all:
        events = last_run_events(events)
    print(format_status(summarize(events)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    status = sub.add_parser("status", help="summarize a sweep journal")
    status.add_argument(
        "--journal", default=default_journal_path(),
        help="journal file (default: the shared sweep journal)",
    )
    status.add_argument(
        "--all", action="store_true",
        help="summarize every run in the file, not just the latest",
    )
    status.set_defaults(func=_cmd_status)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`, which exited first: not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
