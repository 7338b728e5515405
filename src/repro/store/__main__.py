"""Command-line front door for the artifact store.

::

    python -m repro.store gc    --dir STORE [--broker-dir DIR]
                                [--max-age S] [--max-bytes N]
    python -m repro.store stats --dir STORE

``gc`` drops unreferenced objects and, with ``--broker-dir``, the
per-key checkpoint directories of broker tasks that already completed.
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
from pathlib import Path
from typing import List, Optional

from repro.errors import BrokerError, ReproError
from repro.store import LocalStore


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Maintain a content-addressed artifact store.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("gc", help="drop unreferenced objects / done "
                                   "broker checkpoints / prune by age-LRU")
    sp.add_argument("--dir", default=None, help="store directory to collect")
    sp.add_argument("--broker-dir", default=None,
                    help="also prune ckpt/ dirs of done broker tasks")
    sp.add_argument("--max-age", type=float, default=None, metavar="S",
                    help="drop refs not touched for S seconds")
    sp.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="LRU-drop refs while referenced bytes exceed N")

    sp = sub.add_parser("stats", help="print store statistics as JSON")
    sp.add_argument("--dir", required=True, help="store directory")

    return parser.parse_args(argv)


def _cmd_gc(args) -> int:
    if not args.dir and not args.broker_dir:
        raise SystemExit("gc needs --dir and/or --broker-dir")
    if args.broker_dir and not Path(args.broker_dir).is_dir():
        # Opening a Broker there would create an empty queue.
        raise BrokerError(f"no broker directory {args.broker_dir}")
    pruning = args.max_age is not None or args.max_bytes is not None
    if args.dir:
        local = LocalStore(args.dir)
        if pruning:
            dropped, removed, freed = local.prune(
                max_age=args.max_age, max_bytes=args.max_bytes
            )
            print(
                f"prune {args.dir}: dropped {dropped} refs, removed "
                f"{removed} objects ({freed} bytes)"
            )
        else:
            removed, freed = local.gc()
            print(
                f"gc {args.dir}: removed {removed} objects ({freed} bytes)"
            )
    if args.broker_dir:
        from repro.experiments.broker import Broker

        broker = Broker(args.broker_dir)
        dirs, freed = broker.gc_checkpoints()
        print(
            f"gc {args.broker_dir}: removed {dirs} done-task checkpoint "
            f"dirs ({freed} bytes)"
        )
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
