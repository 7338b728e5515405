"""Content-addressed artifact store: one directory, verified on read.

The pipeline cache's persistent tier (``--cache-dir``) is a
**content-addressed store** (CAS) keyed by the sha256 fingerprints the
repo already computes everywhere.  Sharing a warm store between hosts
is pointing ``--cache-dir`` at a shared mount, or copying the
directory (``cp -a``/``rsync``): objects are immutable and every read
is verified, so a copy is as good as the original.

Layout of one store directory (a :class:`LocalStore`)::

    objects/<aa>/<sha256>     immutable blobs, named by their own digest
    refs/<namespace>/<name>   mutable pointers: one hex digest per file
    quarantine/               objects that failed verification on read

The invariants the store honors:

object immutability
    An object file's name *is* the sha256 of its bytes.  Two writers
    racing to publish the same digest are by definition writing the
    same bytes, so publication is a temp file + :func:`os.replace` and
    any interleaving yields one canonical object.

verification on read
    Every object read is re-hashed and compared against its name
    **before** it is used.  A mismatch quarantines the file (where the
    directory is writable) and raises
    :class:`~repro.errors.StoreCorruptionError`; callers treat that as
    a miss and recompute.

file before index
    A ref is only ever written after the object it points to has been
    published (the broker's file-before-row rule).  A crash between the
    two leaves at worst an orphaned object for ``gc``, never a ref
    pointing at missing bytes.
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

__all__ = ["LocalStore", "atomic_publish", "object_digest"]

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
    """One CAS directory.

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
                first (best-effort), so the next fetch misses and the
                caller recomputes instead of re-tripping.
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
            # A read-only directory cannot be cleaned from here;
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
        by any surviving ref keeps its bytes.

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
