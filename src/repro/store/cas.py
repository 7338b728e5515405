"""Content-addressed artifact store with tiered read-through caching.

Every cache tier the repo grew so far was an island: the pipeline
cache's disk tier, per-run checkpoint directories, digest-named broker
result files.  This module gives them one shared substrate — a
**content-addressed store** (CAS) keyed by the sha256 fingerprints the
repo already computes everywhere — so CI matrix jobs, developer
machines, and broker workers on other hosts can share one warm store
instead of each paying the full cold-start recompute.

Layout of one store directory (a :class:`LocalStore`)::

    objects/<aa>/<sha256>     immutable blobs, named by their own digest
    refs/<namespace>/<name>   mutable pointers: one hex digest per file
    quarantine/               objects that failed verification on read

The invariants every tier honors:

object immutability
    An object file's name *is* the sha256 of its bytes.  Two writers
    racing to publish the same digest are by definition writing the
    same bytes, so publication is a temp file + :func:`os.replace` and
    any interleaving yields one canonical object.

verification on read
    Every object read from any tier is re-hashed and compared against
    its name **before** it is used or promoted into a faster tier.  A
    mismatch quarantines the file (where the tier is writable) and
    raises :class:`~repro.errors.StoreCorruptionError`; callers treat
    that as a miss and fall through — to the next tier, or to
    recompute.

file before index
    A ref is only ever written after the object it points to has been
    published (the broker's file-before-row rule).  A crash between the
    two leaves at worst an orphaned object for ``gc``, never a ref
    pointing at missing bytes.

graceful degradation
    Remote tiers are :class:`LocalStore` directories too — a shared
    mount or an rsync'd copy.  One that is missing or unreadable answers
    every lookup with a miss, and the run falls back to local compute,
    byte-identically.

:class:`TieredStore` chains tiers fastest-first (in-process dict →
local CAS directory → remotes) with read-through promotion: a remote
hit is verified, then written into the local directory and the memory
tier so the next lookup never leaves the process.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import StoreCorruptionError, StoreError
from repro.telemetry.context import current_recorder

__all__ = [
    "LocalStore",
    "TieredStore",
    "atomic_publish",
    "object_digest",
    "parse_store_url",
]

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")
_REF_PART_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def object_digest(data: bytes) -> str:
    """The store address of *data*: its sha256 hex digest."""
    return hashlib.sha256(data).hexdigest()


def _check_digest(digest: str) -> str:
    if not _DIGEST_RE.match(digest or ""):
        raise StoreError(f"not a sha256 hex digest: {digest!r}")
    return digest


def _check_ref(name: str) -> str:
    """Validate a ref name: slash-separated path-safe segments."""
    parts = (name or "").split("/")
    if not parts or not all(
        _REF_PART_RE.match(part) and part not in (".", "..")
        for part in parts
    ):
        raise StoreError(f"invalid ref name {name!r}")
    return name


def atomic_publish(path, data: bytes, fsync: bool = False) -> None:
    """Write *data* to *path* via a unique temp file + ``os.replace``.

    The pid+thread-qualified temp name means two racing writers can
    never tear each other's bytes; the replace publishes all-or-nothing.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _incr(name: str, delta: float = 1.0) -> None:
    rec = current_recorder()
    if rec.enabled and rec.wants("store"):
        rec.incr(name, delta)


class _TierStats:
    """Hit/miss/byte counters one tier keeps for the stats surfaces."""

    __slots__ = ("hits", "misses", "fetched_bytes", "corruptions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fetched_bytes = 0
        self.corruptions = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fetched_bytes": self.fetched_bytes,
            "corruptions": self.corruptions,
        }


class LocalStore:
    """One CAS directory: the local tier, and the rsync-able remote tier.

    The same class serves both roles — a directory published over NFS
    or synced with rsync *is* a remote tier, read through the identical
    verification path.

    Args:
        root: the store directory (created lazily on first write, so a
            read-only consumer never needs write permission).
        fsync: fsync object files before publishing (durability for
            broker-grade writers; off by default).
    """

    def __init__(self, root, fsync: bool = False) -> None:
        self.root = Path(root)
        self.fsync = bool(fsync)
        self.stats = _TierStats()

    @property
    def name(self) -> str:
        return f"dir:{self.root}"

    # -- objects ------------------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest

    def has(self, digest: str) -> bool:
        return self._object_path(_check_digest(digest)).is_file()

    def put(self, data: bytes, digest: Optional[str] = None) -> str:
        """Publish *data*; returns its digest.  Idempotent: an existing
        object with the same digest is left untouched (same digest,
        same bytes)."""
        actual = object_digest(data)
        if digest is not None and _check_digest(digest) != actual:
            raise StoreError(
                f"digest mismatch on put: claimed {digest[:12]}, "
                f"bytes hash to {actual[:12]}"
            )
        path = self._object_path(actual)
        if not path.exists():
            atomic_publish(path, data, fsync=self.fsync)
        return actual

    def get(self, digest: str) -> Optional[bytes]:
        """The verified bytes of *digest*, or ``None`` if absent.

        Raises:
            StoreCorruptionError: the stored bytes do not hash to their
                name.  The damaged file is moved into ``quarantine/``
                first (best-effort), so the next fetch re-resolves from
                a slower tier or recomputes instead of re-tripping.
        """
        path = self._object_path(_check_digest(digest))
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        if object_digest(data) != digest:
            self.stats.corruptions += 1
            self.quarantine(digest)
            raise StoreCorruptionError(
                f"object {digest[:12]} in {self.root} failed verification "
                f"(quarantined)"
            )
        self.stats.hits += 1
        self.stats.fetched_bytes += len(data)
        return data

    def object_size(self, digest: str) -> int:
        try:
            return self._object_path(digest).stat().st_size
        except OSError:
            return 0

    def quarantine(self, digest: str) -> None:
        """Move a damaged object out of the addressable layout."""
        path = self._object_path(digest)
        target = (
            self.root / "quarantine" / f"{digest}.{os.getpid()}.bad"
        )
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # A read-only remote directory cannot be cleaned from here;
            # the corruption error alone keeps the object unused.
            pass

    def delete(self, digest: str) -> int:
        """Remove one object; returns the bytes freed."""
        path = self._object_path(_check_digest(digest))
        try:
            size = path.stat().st_size
            path.unlink()
            return size
        except OSError:
            return 0

    def objects(self) -> List[str]:
        """Every stored object digest (sorted)."""
        root = self.root / "objects"
        if not root.is_dir():
            return []
        out = []
        for shard in sorted(root.iterdir()):
            if not shard.is_dir():
                continue
            out.extend(
                entry.name
                for entry in sorted(shard.iterdir())
                if _DIGEST_RE.match(entry.name)
            )
        return out

    def size_bytes(self) -> int:
        return sum(self.object_size(digest) for digest in self.objects())

    # -- refs ---------------------------------------------------------------

    def _ref_path(self, name: str) -> Path:
        return self.root / "refs" / Path(*_check_ref(name).split("/"))

    def set_ref(self, name: str, digest: str) -> None:
        """Point *name* at *digest* (write the object FIRST — refs are
        the index half of the file-before-index rule)."""
        atomic_publish(
            self._ref_path(name),
            (_check_digest(digest) + "\n").encode("ascii"),
            fsync=self.fsync,
        )

    def get_ref(self, name: str) -> Optional[str]:
        try:
            text = self._ref_path(name).read_text(encoding="ascii").strip()
        except (OSError, UnicodeDecodeError):
            return None
        if not _DIGEST_RE.match(text):
            # A torn or scribbled ref is dropped, not trusted.
            self.delete_ref(name)
            self.stats.corruptions += 1
            return None
        return text

    def delete_ref(self, name: str) -> bool:
        try:
            self._ref_path(name).unlink()
            return True
        except OSError:
            return False

    def refs(self, prefix: str = "") -> Dict[str, str]:
        """``{name: digest}`` for every valid ref under *prefix*, in
        name order.  Reads every ref body: eviction orders refs with
        the stat-only :meth:`ref_mtimes` instead."""
        out: Dict[str, str] = {}
        for base, entry in self._scan_refs(prefix):
            if not _REF_PART_RE.match(entry.name):
                continue
            try:
                with open(entry.path, encoding="ascii") as fh:
                    text = fh.read().strip()
            except (OSError, UnicodeDecodeError):
                continue
            if _DIGEST_RE.match(text):
                out[base + entry.name] = text
        return dict(sorted(out.items()))

    def _scan_refs(self, prefix: str):
        """``(name prefix, DirEntry)`` per file under *prefix*'s refs.

        One ``os.scandir`` walk that reads no ref bodies and stats
        nothing (``DirEntry.is_dir`` answers from the directory listing
        itself).  Writers' ``*.tmp`` files are skipped.
        """
        root = self.root / "refs"
        if prefix:
            root = root / Path(*_check_ref(prefix).split("/"))
        stack = [(root, f"{prefix}/" if prefix else "")]
        while stack:
            directory, base = stack.pop()
            try:
                with os.scandir(directory) as listing:
                    for entry in listing:
                        if entry.is_dir():
                            stack.append((entry.path, f"{base}{entry.name}/"))
                        elif not entry.name.endswith(".tmp"):
                            yield base, entry
            except (FileNotFoundError, NotADirectoryError):
                continue

    def count_refs(self, prefix: str = "") -> int:
        """How many ref files live under *prefix* — names only, cheap
        enough to run on every publish."""
        return sum(1 for _ in self._scan_refs(prefix))

    def ref_mtimes(self, prefix: str = "") -> List[Tuple[float, str]]:
        """``(mtime, name)`` per ref, oldest first with a name
        tie-break — the eviction ordering.

        Stat-only: ref bodies are not read, so a torn or scribbled ref
        is listed too; read a digest with :meth:`get_ref`, which drops
        such refs.
        """
        out = []
        for base, entry in self._scan_refs(prefix):
            if not _REF_PART_RE.match(entry.name):
                continue  # a stray file, not a ref name
            try:
                out.append((entry.stat().st_mtime, base + entry.name))
            except OSError:
                continue  # removed since the listing
        out.sort()
        return out

    # -- maintenance --------------------------------------------------------

    def prune(
        self,
        max_age: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Tuple[int, int, int]:
        """Age/LRU eviction: drop refs, then gc unreferenced objects.

        Two independent policies compose (either may be ``None``):

        * *max_age*: refs not touched for more than this many seconds
          are dropped.
        * *max_bytes*: while referenced bytes exceed this budget, drop
          the least-recently-touched surviving refs (object sizes are
          counted once however many refs share a digest).

        Only *refs* are evicted directly; objects leave through the
        ordinary ref-reachability :meth:`gc`, so a digest still named
        by any surviving ref keeps its bytes.  A pruned object is not
        special afterwards — re-fetching it from another tier runs the
        same digest verification as any cold read.

        The age policy needs no ref bodies; the byte policy reads the
        digest of every ref that survives it (dropping torn ones, as
        :meth:`get_ref` does).

        Returns ``(refs dropped, objects removed, bytes freed)``.
        """
        if now is None:
            now = time.time()
        names = []  # oldest first
        dropped = 0
        cutoff = None if max_age is None else now - float(max_age)
        for mtime, name in self.ref_mtimes():
            if cutoff is not None and mtime < cutoff:
                dropped += self.delete_ref(name)
            else:
                names.append(name)
        if max_bytes is not None:
            entries = []
            for name in names:
                digest = self.get_ref(name)
                if digest is not None:
                    entries.append((name, digest))
            sizes = {digest: self.object_size(digest) for _, digest in entries}
            live: Dict[str, int] = {}
            for _name, digest in entries:
                live[digest] = live.get(digest, 0) + 1
            total = sum(sizes.values())
            for name, digest in entries:
                if total <= int(max_bytes):
                    break
                dropped += self.delete_ref(name)
                live[digest] -= 1
                if live[digest] == 0:
                    total -= sizes[digest]
        removed, freed = self.gc()
        return dropped, removed, freed

    def gc(self, keep: Iterable[str] = ()) -> Tuple[int, int]:
        """Delete objects referenced by no ref (and not in *keep*).

        Returns ``(objects removed, bytes freed)``.  Also sweeps stale
        ``*.tmp`` files left by crashed writers.
        """
        live = set(self.refs().values()) | set(keep)
        removed = 0
        freed = 0
        for digest in self.objects():
            if digest not in live:
                freed += self.delete(digest)
                removed += 1
        for sub in ("objects", "refs"):
            root = self.root / sub
            if not root.is_dir():
                continue
            for tmp in root.rglob("*.tmp"):
                try:
                    tmp.unlink()
                except OSError:
                    pass
        return removed, freed

    def stats_dict(self) -> dict:
        counts = self.stats.as_dict()
        counts.update(
            objects=len(self.objects()),
            refs=len(self.refs()),
            bytes=self.size_bytes(),
        )
        return counts


def parse_store_url(text: str) -> list:
    """Tier objects for a ``REPRO_STORE_URL`` value.

    Comma-separated store directories; listed order is consulted order.

    Raises:
        StoreError: an entry is an ``http(s)://`` URL.  The HTTP store
            tier was removed, and such an entry would otherwise be read
            as a relative directory named ``http:``.
    """
    tiers: list = []
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith(("http://", "https://")):
            raise StoreError(
                f"store tier {part!r}: the HTTP store transport was "
                f"removed; list store directories instead"
            )
        tiers.append(LocalStore(part))
    return tiers


class TieredStore:
    """A read-through chain of store tiers, fastest first.

    ``memory → local CAS directory → remotes``, with digest-verified
    promotion: a hit in a slow tier is written into every faster tier
    before it is returned, so repeat lookups never leave the process.

    Args:
        local: optional :class:`LocalStore` persistent tier.
        remotes: remote :class:`LocalStore` tiers in consulted order.
        push_remotes: also publish writes to the remote tiers
            (best-effort; a dead remote never fails a publish).
    """

    def __init__(
        self, local: Optional[LocalStore] = None, remotes=(),
        push_remotes: bool = False,
    ) -> None:
        self.local = local
        self.remotes = list(remotes)
        self.push_remotes = bool(push_remotes)
        self._mem_objects: Dict[str, bytes] = {}
        self._mem_refs: Dict[str, str] = {}
        self.memory_hits = 0

    # -- objects ------------------------------------------------------------

    def get_object(self, digest: str) -> Optional[bytes]:
        """Verified bytes of *digest* from the fastest tier holding it."""
        _check_digest(digest)
        data = self._mem_objects.get(digest)
        if data is not None:
            self.memory_hits += 1
            _incr("store.memory.hit")
            return data
        for tier in self._tiers():
            try:
                data = tier.get(digest)
            except StoreCorruptionError:
                _incr("store.corrupt")
                continue
            if data is None:
                _incr(f"store.{self._label(tier)}.miss")
                continue
            _incr(f"store.{self._label(tier)}.hit")
            _incr(f"store.{self._label(tier)}.fetched_bytes", len(data))
            self._promote(digest, data, tier)
            return data
        return None

    def put_object(self, data: bytes) -> str:
        """Publish *data* to every writable tier; returns its digest."""
        digest = object_digest(data)
        self._mem_objects[digest] = data
        if self.local is not None:
            try:
                self.local.put(data, digest)
            except OSError:
                pass
        if self.push_remotes:
            for tier in self.remotes:
                try:
                    tier.put(data, digest)
                except (OSError, StoreError):
                    pass
        return digest

    # -- refs ---------------------------------------------------------------

    def fetch(self, name: str) -> Optional[bytes]:
        """Resolve ref *name* and return its object's verified bytes."""
        _check_ref(name)
        digest = self._mem_refs.get(name)
        if digest is not None:
            data = self._mem_objects.get(digest)
            if data is not None:
                self.memory_hits += 1
                _incr("store.memory.hit")
                return data
        for tier in self._tiers():
            digest = tier.get_ref(name)
            if digest is None:
                _incr(f"store.{self._label(tier)}.miss")
                continue
            data = self.get_object(digest)
            if data is None:
                continue
            self._mem_refs[name] = digest
            if self.local is not None and self.local.get_ref(name) != digest:
                try:
                    # Object was promoted by get_object already:
                    # file before index.
                    self.local.set_ref(name, digest)
                except OSError:
                    pass
            return data
        return None

    def publish(self, name: str, data: bytes) -> str:
        """Publish *data* and point ref *name* at it, object first."""
        _check_ref(name)
        digest = self.put_object(data)
        self._mem_refs[name] = digest
        if self.local is not None:
            try:
                self.local.set_ref(name, digest)
            except OSError:
                pass
        if self.push_remotes:
            for tier in self.remotes:
                try:
                    tier.set_ref(name, digest)
                except (OSError, StoreError):
                    pass
        return digest

    def list_refs(self, prefix: str = "") -> Dict[str, str]:
        """Merged ``{name: digest}`` across tiers; faster tiers win."""
        out: Dict[str, str] = {}
        for tier in reversed(self.remotes):
            try:
                out.update(tier.refs(prefix))
            except StoreError:
                continue
        if self.local is not None:
            out.update(self.local.refs(prefix))
        for name, digest in self._mem_refs.items():
            if not prefix or name.startswith(prefix.rstrip("/") + "/"):
                out[name] = digest
        return out

    # -- plumbing -----------------------------------------------------------

    def _tiers(self) -> list:
        tiers: list = []
        if self.local is not None:
            tiers.append(self.local)
        tiers.extend(self.remotes)
        return tiers

    def _label(self, tier) -> str:
        return "local" if tier is self.local else "remote"

    def _promote(self, digest: str, data: bytes, source) -> None:
        self._mem_objects[digest] = data
        if self.local is not None and source is not self.local:
            try:
                self.local.put(data, digest)
            except OSError:
                pass

    def configured(self) -> bool:
        """Whether any persistent/remote tier exists (the memory tier
        alone is not worth routing through)."""
        return self.local is not None or bool(self.remotes)

    def stats(self) -> dict:
        tiers = {"memory": {"hits": self.memory_hits,
                            "objects": len(self._mem_objects)}}
        if self.local is not None:
            tiers[self.local.name] = self.local.stats_dict()
        for tier in self.remotes:
            tiers[tier.name] = tier.stats_dict()
        return {"tiers": tiers}
