"""Command-line front door for the artifact store.

::

    python -m repro.store gc    --dir STORE [--max-age S] [--max-bytes N]
    python -m repro.store stats --dir STORE

``gc`` drops unreferenced objects.
With ``--max-age``/``--max-bytes`` it becomes an age/LRU *prune* —
refs idle past the age (or least-recently-touched while over the byte
budget) are dropped first, then unreferenced objects collected.

Copying a store to another host is ``cp -a`` or ``rsync``: objects are
immutable and every read is verified.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.store import LocalStore


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Maintain a content-addressed artifact store.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("gc", help="drop unreferenced objects / prune "
                                   "by age-LRU")
    sp.add_argument("--dir", required=True, help="store directory to collect")
    sp.add_argument("--max-age", type=float, default=None, metavar="S",
                    help="drop refs not touched for S seconds")
    sp.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="LRU-drop refs while referenced bytes exceed N")

    sp = sub.add_parser("stats", help="print store statistics as JSON")
    sp.add_argument("--dir", required=True, help="store directory")

    return parser.parse_args(argv)


def _cmd_gc(args) -> int:
    local = LocalStore(args.dir)
    if args.max_age is not None or args.max_bytes is not None:
        dropped, removed, freed = local.prune(
            max_age=args.max_age, max_bytes=args.max_bytes
        )
        print(
            f"prune {args.dir}: dropped {dropped} refs, removed "
            f"{removed} objects ({freed} bytes)"
        )
    else:
        removed, freed = local.gc()
        print(f"gc {args.dir}: removed {removed} objects ({freed} bytes)")
    return 0


def _cmd_stats(args) -> int:
    local = LocalStore(args.dir)
    print(json.dumps({"tiers": {local.name: local.stats_dict()}},
                     indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        return {"gc": _cmd_gc, "stats": _cmd_stats}[args.verb](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
