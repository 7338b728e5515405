"""Shared content-addressed artifact store (see :mod:`repro.store.cas`).

Configuration is two environment variables, mirrored by CLI flags:

``REPRO_STORE_DIR`` (``--store-dir``)
    A local CAS directory used as the process-wide persistent tier for
    consumers that have no directory of their own (broker results,
    checkpoint snapshots).  The pipeline cache's ``--cache-dir`` *is*
    already a store directory and does not need this.

``REPRO_STORE_URL`` (``--store-url``)
    Comma-separated remote tiers, consulted in order on a local miss:
    store directories on a shared mount or rsync'd from another host.
    An ``http(s)://`` entry raises :class:`~repro.errors.StoreError`
    (the HTTP store tier was removed).

:func:`default_store` builds one process-wide :class:`TieredStore` from
those variables, re-built automatically if they change (the CLI writes
flags into the environment so spawned workers inherit them).  It
returns ``None`` when neither is set — consumers skip store plumbing
entirely and behave exactly as before.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.store.cas import (
    LocalStore,
    TieredStore,
    atomic_publish,
    object_digest,
    parse_store_url,
)

__all__ = [
    "LocalStore",
    "STORE_DIR_ENV",
    "STORE_URL_ENV",
    "TieredStore",
    "atomic_publish",
    "default_store",
    "object_digest",
    "parse_store_url",
    "remote_tiers",
]

STORE_URL_ENV = "REPRO_STORE_URL"
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: ``((dir, url), TieredStore | None)`` — rebuilt when the env changes.
_cached_store = (None, None)
#: ``(url, [tiers])`` — shared remote tier objects, so their hit/miss
#: counters are process-wide rather than per-consumer.
_cached_remotes = (None, [])


def remote_tiers() -> List:
    """The remote tiers configured via :data:`STORE_URL_ENV` (shared
    instances: every consumer sees the same tier counters)."""
    global _cached_remotes
    url = os.environ.get(STORE_URL_ENV, "").strip()
    if url != _cached_remotes[0]:
        _cached_remotes = (url, parse_store_url(url))
    return _cached_remotes[1]


def default_store() -> Optional[TieredStore]:
    """The process-wide store, or ``None`` when nothing is configured.

    Writes are pushed to remote tiers too (best-effort — an unwritable
    tier degrades silently), so one worker's compute warms the whole
    fleet.
    """
    global _cached_store
    key = (
        os.environ.get(STORE_DIR_ENV, "").strip(),
        os.environ.get(STORE_URL_ENV, "").strip(),
    )
    if key != _cached_store[0]:
        directory, url = key
        if not directory and not url:
            store = None
        else:
            store = TieredStore(
                local=LocalStore(directory) if directory else None,
                remotes=remote_tiers(),
                push_remotes=True,
            )
        _cached_store = (key, store)
    return _cached_store[1]
