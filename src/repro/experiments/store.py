"""The cache store: where content-addressed entries live.

The scenario-level :class:`~repro.experiments.cache.ResultCache` keeps its
entries in a :class:`SqliteCacheStore`: *get/put/keys/stat/gc* over
JSON-object entries addressed by a content digest within a namespace, all
in one sqlite file (``entries(namespace, key, entry, created_at)``).  Each
operation opens a short-lived connection with a busy timeout and closes
it again, so many processes on one host (or a shared filesystem) can
hammer the same store, and the single file is the artifact a sharded
campaign ships between hosts.

Stores are named by ``sqlite:/path/to/cache.db`` URIs or bare paths,
accepted by ``repro campaign run --cache-store``, the ``repro cache``
verbs and :func:`open_store`.  Any sqlite failure (an unopenable path, a
file that is not a database) surfaces as :class:`CacheStoreError` naming
the store file.

Corrupt entries (truncated writes, tampering) are never silently dropped:
every undecodable read increments the store's ``corrupt`` counter and logs
a warning naming the offending row, ``stat()`` surfaces the count, and
``gc()`` moves the bodies into the ``quarantine`` table instead of
deleting evidence.
"""

from __future__ import annotations

import json
import logging
import re
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError

logger = logging.getLogger(__name__)

#: Namespace used for scenario-result entries.
RESULTS_NAMESPACE = "results"


class CacheStoreError(ReproError):
    """Raised for unusable store URIs and unrecoverable backend failures."""


@dataclass
class GcReport:
    """What one :meth:`SqliteCacheStore.gc` pass did."""

    scanned: int = 0
    kept: int = 0
    pruned: int = 0
    quarantined: int = 0
    #: ``namespace/key`` of every quarantined entry.
    quarantined_ids: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scanned": self.scanned,
            "kept": self.kept,
            "pruned": self.pruned,
            "quarantined": self.quarantined,
        }


class SqliteCacheStore:
    """get/put/keys/stat/gc over JSON entries, addressed by (namespace, key).

    Every operation opens a short-lived connection with a busy timeout,
    so the store object itself is trivially thread-safe and the database
    is the single point of cross-process coordination (sqlite's own
    locking serializes writers).  Entries are stored as their JSON text;
    rows that fail to decode are counted as corrupt and moved to the
    ``quarantine`` table by :meth:`gc`.  ``hits``/``misses``/``stores``/
    ``corrupt`` count this handle's traffic; ``stat()`` scans the file.
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
        self.path = Path(path)
        self.timeout = timeout
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.executescript(self._SCHEMA)

    def describe(self) -> str:
        """The store's canonical URI."""
        return f"sqlite:{self.path}"

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """One operation's connection: committed on success, rolled back
        on error, always closed; sqlite errors become CacheStoreError."""
        try:
            conn = sqlite3.connect(self.path, timeout=self.timeout)
            try:
                with conn:
                    yield conn
            finally:
                conn.close()
        except sqlite3.Error as exc:
            raise CacheStoreError(
                f"cannot use sqlite cache store {self.path}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def get(self, key: str, namespace: str = "") -> Optional[dict]:
        """The decoded entry, or None when absent or undecodable."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT entry FROM entries WHERE namespace=? AND key=?",
                (namespace, key),
            ).fetchone()
        entry = None if row is None else self._decode(row[0])
        corrupt = row is not None and entry is None
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            if corrupt:
                self.corrupt += 1
        if corrupt:
            logger.warning("corrupt cache entry at %s:%s/%s (counted, will "
                           "be quarantined by gc)", self.path, namespace, key)
        return entry

    def put(self, key: str, entry: dict, namespace: str = "") -> None:
        payload = json.dumps(entry, sort_keys=True)
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO entries "
                "(namespace, key, entry, created_at) VALUES (?, ?, ?, ?)",
                (namespace, key, payload, time.time()),
            )
        with self._lock:
            self.stores += 1

    def keys(self, namespace: str = "") -> List[str]:
        """Sorted keys currently present in one namespace."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT key FROM entries WHERE namespace=? ORDER BY key",
                (namespace,),
            ).fetchall()
        return [r[0] for r in rows]

    def reclassify_hit_as_miss(self) -> None:
        """Demote the latest hit: the entry decoded but is unusable
        upstream (format drift, identity mismatch)."""
        with self._lock:
            self.hits -= 1
            self.misses += 1

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
            }

    # ------------------------------------------------------------------
    def stat(self) -> Dict[str, Any]:
        """Scan the file: entry counts per namespace, corrupt rows, bytes."""
        namespaces: Dict[str, int] = {}
        corrupt = 0
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT namespace, entry FROM entries"
            ).fetchall()
        for ns, payload in rows:
            if self._decode(payload) is not None:
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
    def _decode(payload: str) -> Optional[dict]:
        try:
            entry = json.loads(payload)
        except json.JSONDecodeError:
            return None
        return entry if isinstance(entry, dict) else None

    def gc(self, max_age_seconds: Optional[float] = None) -> GcReport:
        """Quarantine corrupt entries; prune readable ones older than
        ``max_age_seconds`` (None = keep all readable entries)."""
        report = GcReport()
        now = time.time()
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT namespace, key, entry, created_at FROM entries"
            ).fetchall()
            for ns, key, payload, created_at in rows:
                report.scanned += 1
                if self._decode(payload) is None:
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
#: An RFC 3986 scheme token of two or more characters.  A one-letter
#: prefix is a Windows drive (``C:/...``), and a prefix with any other
#: character in it (``stores/a:b.db``, ``./a:b.db``) is a path.
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]+")


def parse_store_uri(uri: str) -> Tuple[str, str]:
    """Split a cache-store URI into ``(scheme, location)``.

    ``sqlite:<path>`` is explicit and a bare path names a sqlite file too.
    Text before the first ``:`` is a scheme only when it matches
    :data:`_SCHEME`; anything else is a path.
    """
    scheme, sep, rest = uri.partition(":")
    if sep and _SCHEME.fullmatch(scheme):
        if scheme != "sqlite":
            raise CacheStoreError(
                f"unknown cache-store scheme {scheme!r} in {uri!r}; "
                f"expected sqlite:<path> or a bare path (write ./{uri} "
                f"for a file whose name contains a colon)"
            )
        if not rest:
            raise CacheStoreError(f"cache-store URI {uri!r} has no path")
        return scheme, rest
    if not uri:
        raise CacheStoreError("cache-store URI is empty")
    return "sqlite", uri


def open_store(
    store: Union[str, Path, SqliteCacheStore],
) -> SqliteCacheStore:
    """Resolve a URI / path / already-open store into a store.

    A :class:`~pathlib.Path` is always a path, never parsed as a URI.
    """
    if isinstance(store, SqliteCacheStore):
        return store
    if isinstance(store, Path):
        return SqliteCacheStore(store)
    return SqliteCacheStore(parse_store_uri(str(store))[1])
