"""Pluggable cache stores: where content-addressed entries live.

Both persistent caches — the scenario-level
:class:`~repro.experiments.cache.ResultCache` and the persisted variant of
the toolchain's :class:`~repro.toolchain.compiler.CompileCache` — speak the
same tiny storage protocol: *get/put/keys/stat/gc* over JSON-object entries
addressed by a content digest within a namespace.  :class:`CacheStore`
names that protocol; two backends implement it:

* :class:`DirectoryCacheStore` — the original one-file-per-entry tree
  (``<root>/<namespace>/<digest>.json``; the empty namespace maps onto the
  root itself).
  Writers take a per-entry advisory file lock (``fcntl``-based, with an
  ``O_EXCL`` spin fallback) around the tmp-write + atomic rename, so
  concurrent processes sharing one tree never corrupt an entry.
* :class:`SqliteCacheStore` — a single-file sqlite database
  (``entries(namespace, key, entry, created_at)``), one connection per
  operation with a busy timeout, so many processes on one host (or a
  shared filesystem) can hammer the same store.  This is the shape a
  future networked backend slots into.

Stores are named by URIs — ``dir:/path/to/tree`` or
``sqlite:/path/to/cache.db`` (a bare path means ``dir:``) — accepted by
``repro campaign run --cache-store``, the ``repro cache`` verbs and
:func:`open_store`.

Corrupt entries (truncated writes, tampering) are never silently dropped:
every undecodable read increments the store's ``corrupt`` counter and logs
a warning naming the offending path/row, ``stat()`` surfaces the count,
and ``gc()`` quarantines the bodies (``quarantine/`` subdirectory, or the
``quarantine`` table) instead of deleting evidence.
"""

from __future__ import annotations

import abc
import json
import logging
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError

logger = logging.getLogger(__name__)

#: Recognized cache-store URI schemes.
STORE_SCHEMES = ("dir", "sqlite")

#: Namespace used for scenario-result entries in shared stores.
RESULTS_NAMESPACE = "results"

#: Namespace used for persisted compiler front-end entries.
COMPILE_NAMESPACE = "compile"


class CacheStoreError(ReproError):
    """Raised for unusable store URIs and unrecoverable backend failures."""


# ----------------------------------------------------------------------
class FileLock:
    """Advisory per-file lock for cross-process writer exclusion.

    Uses ``fcntl.flock`` where available (POSIX); elsewhere falls back to
    an ``O_CREAT|O_EXCL`` spin lock on the same path.  Either way the lock
    is advisory — it only excludes other :class:`FileLock` holders — which
    is exactly what the directory store needs: writers of the *same* entry
    serialize, readers never block (reads are safe against the atomic
    rename).
    """

    def __init__(self, path: Union[str, Path], timeout: float = 30.0) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self._fd: Optional[int] = None
        self._exclusive = False  # O_EXCL fallback owns the file's existence

    def acquire(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            self._acquire_spin()
            return
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._fd = fd
                return
            except OSError:
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise CacheStoreError(
                        f"timed out after {self.timeout}s waiting for "
                        f"cache-store lock {self.path}"
                    )
                time.sleep(0.01)

    def _acquire_spin(self) -> None:  # pragma: no cover - non-POSIX fallback
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                self._fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644
                )
                self._exclusive = True
                return
            except FileExistsError:
                if time.monotonic() >= deadline:
                    raise CacheStoreError(
                        f"timed out after {self.timeout}s waiting for "
                        f"cache-store lock {self.path}"
                    )
                time.sleep(0.01)

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            os.close(self._fd)
        finally:
            self._fd = None
            if self._exclusive:  # pragma: no cover - non-POSIX fallback
                self._exclusive = False
                try:
                    self.path.unlink()
                except OSError:
                    pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()


# ----------------------------------------------------------------------
@dataclass
class GcReport:
    """What one :meth:`CacheStore.gc` pass did."""

    scanned: int = 0
    kept: int = 0
    pruned: int = 0
    quarantined: int = 0
    #: Human-readable identifiers of quarantined entries (paths or rowids).
    quarantined_ids: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scanned": self.scanned,
            "kept": self.kept,
            "pruned": self.pruned,
            "quarantined": self.quarantined,
        }


class CacheStore(abc.ABC):
    """get/put/keys/stat/gc over JSON entries, addressed by (namespace, key).

    Implementations must make ``put`` atomic with respect to concurrent
    readers *and* safe under concurrent same-key writers from other
    processes.  ``hits``/``misses``/``stores``/``corrupt`` count this
    handle's traffic; ``stat()`` additionally scans the persistent state.
    """

    backend: str = "abstract"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # -- backend primitives --------------------------------------------
    @abc.abstractmethod
    def _read_entry(self, namespace: str, key: str) -> Optional[dict]:
        """Return the decoded entry, None on absence, raising nothing.

        Must call :meth:`_note_corrupt` for undecodable bodies."""

    @abc.abstractmethod
    def _write_entry(self, namespace: str, key: str, entry: dict) -> None:
        ...

    @abc.abstractmethod
    def keys(self, namespace: str = "") -> List[str]:
        """Sorted keys currently present in one namespace."""

    @abc.abstractmethod
    def stat(self) -> Dict[str, Any]:
        """Scan the persistent state: entry/corrupt counts per namespace."""

    @abc.abstractmethod
    def gc(self, max_age_seconds: Optional[float] = None) -> GcReport:
        """Quarantine corrupt entries; prune readable ones older than
        ``max_age_seconds`` (None = keep all readable entries)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """The store's canonical URI (``<scheme>:<location>``)."""

    def close(self) -> None:
        """Release backend resources (no-op for both built-ins)."""

    # -- shared surface ------------------------------------------------
    def get(self, key: str, namespace: str = "") -> Optional[dict]:
        entry = self._read_entry(namespace, key)
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        return entry

    def put(self, key: str, entry: dict, namespace: str = "") -> None:
        self._write_entry(namespace, key, entry)
        with self._lock:
            self.stores += 1

    def reclassify_hit_as_miss(self) -> None:
        """Demote the latest hit: the entry decoded but is unusable
        upstream (format drift, identity mismatch)."""
        with self._lock:
            self.hits -= 1
            self.misses += 1

    def _note_corrupt(self, where: str) -> None:
        with self._lock:
            self.corrupt += 1
        logger.warning("corrupt cache entry at %s (counted, will be "
                       "quarantined by gc)", where)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
            }

    def __len__(self) -> int:
        return sum(
            count for count in self.stat()["namespaces"].values()
        )


# ----------------------------------------------------------------------
class DirectoryCacheStore(CacheStore):
    """One JSON file per entry under ``<root>/<namespace>/``.

    The empty namespace lives directly in ``root``.  Writes go through a
    per-entry advisory :class:`FileLock` plus a tmp-file + ``os.replace``
    so concurrent writers (threads or processes) can race on the same key
    without torn entries.
    """

    backend = "dir"

    #: Subdirectory corrupt entries are moved into by :meth:`gc`.
    QUARANTINE_DIR = "quarantine"

    #: Subdirectory holding writer lock files (kept out of entry globs).
    LOCKS_DIR = ".locks"

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def describe(self) -> str:
        return f"dir:{self.root}"

    # ------------------------------------------------------------------
    def _dir(self, namespace: str) -> Path:
        return self.root / namespace if namespace else self.root

    def _path(self, namespace: str, key: str) -> Path:
        return self._dir(namespace) / f"{key}.json"

    def _entry_paths(self, namespace: str) -> List[Path]:
        directory = self._dir(namespace)
        if not directory.is_dir():
            return []
        return sorted(
            p for p in directory.glob("*.json") if not p.name.startswith(".")
        )

    def _namespaces(self) -> List[str]:
        found = [""] if self._entry_paths("") else []
        for child in sorted(self.root.iterdir()):
            if child.is_dir() and child.name not in (
                self.QUARANTINE_DIR, self.LOCKS_DIR,
            ):
                found.append(child.name)
        return found or [""]

    # ------------------------------------------------------------------
    def _read_entry(self, namespace: str, key: str) -> Optional[dict]:
        path = self._path(namespace, key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError:
            self._note_corrupt(str(path))
            return None
        if not isinstance(entry, dict):
            self._note_corrupt(str(path))
            return None
        return entry

    def _write_entry(self, namespace: str, key: str, entry: dict) -> None:
        path = self._path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock = FileLock(self.root / self.LOCKS_DIR / f"{key}.lock")
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        with lock:
            tmp.write_text(
                json.dumps(entry, sort_keys=True), encoding="utf-8"
            )
            os.replace(tmp, path)

    def keys(self, namespace: str = "") -> List[str]:
        return [p.stem for p in self._entry_paths(namespace)]

    # ------------------------------------------------------------------
    def stat(self) -> Dict[str, Any]:
        namespaces: Dict[str, int] = {}
        corrupt = 0
        total_bytes = 0
        for ns in self._namespaces():
            count = 0
            for path in self._entry_paths(ns):
                total_bytes += path.stat().st_size
                if self._decodes(path):
                    count += 1
                else:
                    corrupt += 1
            namespaces[ns] = count
        return {
            "backend": self.backend,
            "location": str(self.root),
            "namespaces": namespaces,
            "entries": sum(namespaces.values()),
            "corrupt": corrupt,
            "bytes": total_bytes,
        }

    @staticmethod
    def _decodes(path: Path) -> bool:
        try:
            return isinstance(
                json.loads(path.read_text(encoding="utf-8")), dict
            )
        except (OSError, json.JSONDecodeError):
            return False

    def gc(self, max_age_seconds: Optional[float] = None) -> GcReport:
        report = GcReport()
        now = time.time()
        quarantine = self.root / self.QUARANTINE_DIR
        for ns in self._namespaces():
            for path in self._entry_paths(ns):
                report.scanned += 1
                if not self._decodes(path):
                    quarantine.mkdir(parents=True, exist_ok=True)
                    target = quarantine / (
                        f"{ns}-{path.name}" if ns else path.name
                    )
                    os.replace(path, target)
                    report.quarantined += 1
                    report.quarantined_ids.append(str(target))
                    logger.warning(
                        "quarantined corrupt cache entry %s -> %s",
                        path, target,
                    )
                    continue
                age = now - path.stat().st_mtime
                if max_age_seconds is not None and age > max_age_seconds:
                    path.unlink()
                    report.pruned += 1
                else:
                    report.kept += 1
        return report


# ----------------------------------------------------------------------
class SqliteCacheStore(CacheStore):
    """All entries in one sqlite file; safe for concurrent processes.

    Every operation opens a short-lived connection with a busy timeout,
    so the store object itself is trivially thread-safe and the database
    is the single point of cross-process coordination (sqlite's own
    locking serializes writers).  Entries are stored as their JSON text;
    rows that fail to decode are counted as corrupt and moved to the
    ``quarantine`` table by :meth:`gc`.
    """

    backend = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS entries (
            namespace TEXT NOT NULL,
            key TEXT NOT NULL,
            entry TEXT NOT NULL,
            created_at REAL NOT NULL,
            PRIMARY KEY (namespace, key)
        );
        CREATE TABLE IF NOT EXISTS quarantine (
            namespace TEXT NOT NULL,
            key TEXT NOT NULL,
            entry TEXT NOT NULL,
            quarantined_at REAL NOT NULL
        );
    """

    def __init__(
        self, path: Union[str, Path], timeout: float = 30.0
    ) -> None:
        super().__init__()
        self.path = Path(path)
        self.timeout = timeout
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.executescript(self._SCHEMA)

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def _connect(self) -> sqlite3.Connection:
        try:
            conn = sqlite3.connect(self.path, timeout=self.timeout)
        except sqlite3.Error as exc:
            raise CacheStoreError(
                f"cannot open sqlite cache store {self.path}: {exc}"
            ) from exc
        return conn

    # ------------------------------------------------------------------
    def _read_entry(self, namespace: str, key: str) -> Optional[dict]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT entry FROM entries WHERE namespace=? AND key=?",
                (namespace, key),
            ).fetchone()
        if row is None:
            return None
        try:
            entry = json.loads(row[0])
        except json.JSONDecodeError:
            self._note_corrupt(f"{self.path}:{namespace}/{key}")
            return None
        if not isinstance(entry, dict):
            self._note_corrupt(f"{self.path}:{namespace}/{key}")
            return None
        return entry

    def _write_entry(self, namespace: str, key: str, entry: dict) -> None:
        payload = json.dumps(entry, sort_keys=True)
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO entries "
                "(namespace, key, entry, created_at) VALUES (?, ?, ?, ?)",
                (namespace, key, payload, time.time()),
            )

    def keys(self, namespace: str = "") -> List[str]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT key FROM entries WHERE namespace=? ORDER BY key",
                (namespace,),
            ).fetchall()
        return [r[0] for r in rows]

    # ------------------------------------------------------------------
    def stat(self) -> Dict[str, Any]:
        namespaces: Dict[str, int] = {}
        corrupt = 0
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT namespace, entry FROM entries"
            ).fetchall()
        for ns, payload in rows:
            if self._decodes(payload):
                namespaces[ns] = namespaces.get(ns, 0) + 1
            else:
                corrupt += 1
        try:
            total_bytes = self.path.stat().st_size
        except OSError:
            total_bytes = 0
        return {
            "backend": self.backend,
            "location": str(self.path),
            "namespaces": namespaces,
            "entries": sum(namespaces.values()),
            "corrupt": corrupt,
            "bytes": total_bytes,
        }

    @staticmethod
    def _decodes(payload: str) -> bool:
        try:
            return isinstance(json.loads(payload), dict)
        except json.JSONDecodeError:
            return False

    def gc(self, max_age_seconds: Optional[float] = None) -> GcReport:
        report = GcReport()
        now = time.time()
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT namespace, key, entry, created_at FROM entries"
            ).fetchall()
            for ns, key, payload, created_at in rows:
                report.scanned += 1
                if not self._decodes(payload):
                    conn.execute(
                        "INSERT INTO quarantine "
                        "(namespace, key, entry, quarantined_at) "
                        "VALUES (?, ?, ?, ?)",
                        (ns, key, payload, now),
                    )
                    conn.execute(
                        "DELETE FROM entries WHERE namespace=? AND key=?",
                        (ns, key),
                    )
                    report.quarantined += 1
                    report.quarantined_ids.append(f"{ns}/{key}")
                    logger.warning(
                        "quarantined corrupt cache row %s:%s/%s",
                        self.path, ns, key,
                    )
                elif (
                    max_age_seconds is not None
                    and now - created_at > max_age_seconds
                ):
                    conn.execute(
                        "DELETE FROM entries WHERE namespace=? AND key=?",
                        (ns, key),
                    )
                    report.pruned += 1
                else:
                    report.kept += 1
        return report


# ----------------------------------------------------------------------
def parse_store_uri(uri: str) -> Tuple[str, str]:
    """Split a cache-store URI into ``(scheme, location)``.

    ``dir:<path>`` and ``sqlite:<path>`` are explicit; a bare path is a
    directory store (the historical layout).  Windows-style drive letters
    are not mistaken for schemes (single-letter prefixes pass through).
    """
    scheme, sep, rest = uri.partition(":")
    if sep and len(scheme) > 1:
        if scheme not in STORE_SCHEMES:
            raise CacheStoreError(
                f"unknown cache-store scheme {scheme!r} in {uri!r}; "
                f"expected one of: "
                + ", ".join(f"{s}:<path>" for s in STORE_SCHEMES)
            )
        if not rest:
            raise CacheStoreError(f"cache-store URI {uri!r} has no path")
        return scheme, rest
    if not uri:
        raise CacheStoreError("cache-store URI is empty")
    return "dir", uri


def open_store(store: Union[str, Path, CacheStore]) -> CacheStore:
    """Resolve a URI / path / already-open store into a :class:`CacheStore`."""
    if isinstance(store, CacheStore):
        return store
    scheme, location = parse_store_uri(str(store))
    if scheme == "sqlite":
        return SqliteCacheStore(location)
    return DirectoryCacheStore(location)
