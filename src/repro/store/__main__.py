"""Command-line front door for the artifact store.

::

    python -m repro.store push  --dir STORE --url REMOTE [--prefix P]
    python -m repro.store pull  --dir STORE --url REMOTE [--prefix P]
    python -m repro.store gc    --dir STORE [--broker-dir DIR]
                                [--url REMOTE] [--max-age S] [--max-bytes N]
    python -m repro.store stats --dir STORE [--url REMOTE]

``REMOTE`` is one or more comma-separated store directories (a shared
mount, or a copy synced with rsync).  ``push``/``pull`` synchronise
refs (and the objects they point at) between a local store directory
and the remote tiers; ``gc`` drops unreferenced objects and, with
``--broker-dir``, the per-key checkpoint directories of broker tasks
that already completed.  With ``--max-age``/``--max-bytes`` it becomes
an age/LRU *prune* — refs idle past the age (or least-recently-touched
while over the byte budget) are dropped first, then unreferenced
objects collected — and with ``--url`` the prune runs on the remote
tiers too.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ReproError, StoreCorruptionError
from repro.store import STORE_URL_ENV, LocalStore, parse_store_url


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Sync and maintain content-addressed artifact "
        "stores.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, text in (("push", "upload local refs/objects to remotes"),
                       ("pull", "download remote refs/objects locally")):
        sp = sub.add_parser(verb, help=text)
        sp.add_argument("--dir", required=True, help="local store directory")
        sp.add_argument("--url", default=None,
                        help=f"remote tiers (default: ${STORE_URL_ENV})")
        sp.add_argument("--prefix", default="",
                        help="only refs under this prefix")

    sp = sub.add_parser("gc", help="drop unreferenced objects / done "
                                   "broker checkpoints / prune by age-LRU")
    sp.add_argument("--dir", default=None, help="store directory to collect")
    sp.add_argument("--broker-dir", default=None,
                    help="also prune ckpt/ dirs of done broker tasks")
    sp.add_argument("--url", default=None,
                    help="prune remote tiers instead of (or as well as) "
                    f"--dir (default when set: ${STORE_URL_ENV})")
    sp.add_argument("--max-age", type=float, default=None, metavar="S",
                    help="drop refs not touched for S seconds")
    sp.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="LRU-drop refs while referenced bytes exceed N")

    sp = sub.add_parser("stats", help="print tier statistics as JSON")
    sp.add_argument("--dir", default=None, help="local store directory")
    sp.add_argument("--url", default=None,
                    help=f"remote tiers (default: ${STORE_URL_ENV})")

    return parser.parse_args(argv)


def _remotes(url: Optional[str]) -> list:
    import os

    text = url if url is not None else os.environ.get(STORE_URL_ENV, "")
    tiers = parse_store_url(text)
    if not tiers:
        raise SystemExit(
            f"no remote tiers: pass --url or set {STORE_URL_ENV}"
        )
    return tiers


def _sync(source, targets, prefix: str) -> tuple:
    """Copy every ref under *prefix* (and its object) from *source*
    into each of *targets*; returns (refs copied, bytes copied)."""
    copied = 0
    moved_bytes = 0
    for name, digest in sorted(source.refs(prefix).items()):
        try:
            data = source.get(digest)
        except StoreCorruptionError:
            print(f"skipping corrupt object for {name}", file=sys.stderr)
            continue
        if data is None:
            continue
        fresh = False
        for target in targets:
            if target.has(digest) and target.get_ref(name) == digest:
                continue
            # Object first, then the ref — file-before-index.
            target.put(data, digest)
            target.set_ref(name, digest)
            fresh = True
        if fresh:
            copied += 1
            moved_bytes += len(data)
    return copied, moved_bytes


def _cmd_push(args) -> int:
    local = LocalStore(args.dir)
    copied, moved = _sync(local, _remotes(args.url), args.prefix)
    print(f"pushed {copied} refs ({moved} bytes)")
    return 0


def _cmd_pull(args) -> int:
    local = LocalStore(args.dir)
    copied = 0
    moved = 0
    for remote in _remotes(args.url):
        got, size = _sync(remote, [local], args.prefix)
        copied += got
        moved += size
    print(f"pulled {copied} refs ({moved} bytes)")
    return 0


def _cmd_gc(args) -> int:
    if not args.dir and not args.broker_dir and not args.url:
        raise SystemExit("gc needs --dir, --broker-dir, and/or --url")
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
    if args.url:
        for remote in _remotes(args.url):
            dropped, removed, freed = remote.prune(
                max_age=args.max_age, max_bytes=args.max_bytes
            )
            print(
                f"prune {remote.name}: dropped {dropped} refs, "
                f"removed {removed} objects ({freed} bytes)"
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
    tiers = {}
    if args.dir:
        local = LocalStore(args.dir)
        tiers[local.name] = local.stats_dict()
    for remote in _remotes(args.url) if (args.url or not args.dir) else []:
        tiers[remote.name] = remote.stats_dict()
    print(json.dumps({"tiers": tiers}, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        return {
            "push": _cmd_push,
            "pull": _cmd_pull,
            "gc": _cmd_gc,
            "stats": _cmd_stats,
        }[args.verb](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
