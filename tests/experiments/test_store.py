"""The sqlite cache store: URI parsing, store behaviour, corruption
accounting + quarantine, connection hygiene, and cross-process writer
safety."""

from __future__ import annotations

import logging
import multiprocessing
import sqlite3
import time
from contextlib import closing
from pathlib import Path

import pytest

from repro.experiments.store import (
    CacheStoreError,
    SqliteCacheStore,
    open_store,
    parse_store_uri,
)


@pytest.fixture(params=["sqlite"])
def store(request, tmp_path):
    return SqliteCacheStore(tmp_path / "cache.db")


def _corrupt_one(store, namespace, key):
    """Replace an entry's body with undecodable bytes, behind the API."""
    with closing(sqlite3.connect(store.path)) as conn, conn:
        conn.execute(
            "UPDATE entries SET entry=? WHERE namespace=? AND key=?",
            ("{not json", namespace, key),
        )


class TestUriParsing:
    def test_explicit_schemes(self):
        assert parse_store_uri("sqlite:/a/b.db") == ("sqlite", "/a/b.db")

    def test_bare_path_means_sqlite(self):
        # A colon inside a path does not make its prefix a scheme.
        for path in ("some/relative/cache.db", "stores/a:b.db", "./a:b.db"):
            assert parse_store_uri(path) == ("sqlite", path)

    def test_single_char_prefix_is_a_path_not_a_scheme(self):
        # Windows drive letters must not be mistaken for URI schemes.
        assert parse_store_uri("C:/caches/tree") == (
            "sqlite", "C:/caches/tree",
        )

    def test_unknown_scheme_rejected(self):
        for uri in ("redis:localhost", "dir:/a/b"):
            with pytest.raises(CacheStoreError,
                               match="unknown cache-store") as err:
                parse_store_uri(uri)
            assert f"write ./{uri}" in str(err.value)

    def test_empty_uri_and_empty_path_rejected(self):
        with pytest.raises(CacheStoreError):
            parse_store_uri("")
        with pytest.raises(CacheStoreError):
            parse_store_uri("sqlite:")

    def test_open_store_resolves_backends_and_passes_through(self, tmp_path):
        s = open_store(f"sqlite:{tmp_path / 's.db'}")
        bare = open_store(str(tmp_path / "bare"))
        assert isinstance(s, SqliteCacheStore) and s.path == tmp_path / "s.db"
        assert isinstance(bare, SqliteCacheStore)
        assert bare.path == tmp_path / "bare" and bare.path.is_file()
        assert open_store(s) is s

    def test_a_path_is_never_parsed_as_a_uri(self, tmp_path, monkeypatch):
        from repro.experiments.cache import ResultCache

        # A campaign directory named by a timestamp holds its cache.db.
        path = tmp_path / "2026-10-18T05:00" / "cache.db"
        assert ResultCache(path).store.path == path and path.is_file()
        monkeypatch.chdir(tmp_path)
        assert open_store(Path("redis:x.db")).path == Path("redis:x.db")


class TestStoreBasics:
    def test_put_get_roundtrip_and_counters(self, store):
        assert store.get("k1") is None
        assert store.counters()["misses"] == 1
        store.put("k1", {"value": 7})
        assert store.get("k1") == {"value": 7}
        counters = store.counters()
        assert counters["hits"] == 1 and counters["stores"] == 1

    def test_namespaces_isolate_entries(self, store):
        store.put("k", {"where": "root"})
        store.put("k", {"where": "results"}, namespace="results")
        assert store.get("k") == {"where": "root"}
        assert store.get("k", namespace="results") == {"where": "results"}
        assert store.get("k", namespace="compile") is None
        assert store.keys() == ["k"]
        assert store.keys(namespace="results") == ["k"]
        assert store.keys(namespace="compile") == []

    def test_put_overwrites(self, store):
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        assert store.get("k") == {"v": 2}
        assert len(store.keys()) == 1

    def test_stat_shape(self, store):
        store.put("a", {"v": 1})
        store.put("b", {"v": 2}, namespace="results")
        stat = store.stat()
        assert stat["backend"] == store.backend
        assert stat["entries"] == 2
        assert stat["corrupt"] == 0
        assert stat["namespaces"][""] == 1
        assert stat["namespaces"]["results"] == 1
        assert stat["bytes"] > 0

    def test_describe_is_a_reopenable_uri(self, store):
        store.put("k", {"v": 1})
        again = open_store(store.describe())
        assert again.get("k") == {"v": 1}

    def test_gc_keeps_fresh_entries(self, store):
        store.put("k", {"v": 1})
        report = store.gc()
        assert (report.scanned, report.kept) == (1, 1)
        assert report.pruned == 0 and report.quarantined == 0
        assert store.get("k") == {"v": 1}

    def test_gc_prunes_entries_older_than_max_age(self, store):
        store.put("old", {"v": 1})
        time.sleep(0.05)
        report = store.gc(max_age_seconds=0.01)
        assert report.pruned == 1
        assert store.get("old") is None


class TestCorruption:
    def test_corrupt_entry_is_counted_and_logged(self, store, caplog):
        store.put("k", {"v": 1})
        _corrupt_one(store, "", "k")
        with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
            assert store.get("k") is None
        assert store.counters()["corrupt"] == 1
        assert store.stat()["corrupt"] == 1
        assert any("corrupt cache entry" in r.message for r in caplog.records)

    def test_gc_quarantines_corrupt_entries(self, store):
        store.put("good", {"v": 1})
        store.put("bad", {"v": 2}, namespace="results")
        _corrupt_one(store, "results", "bad")
        report = store.gc()
        assert report.quarantined == 1 and report.kept == 1
        assert store.get("good") == {"v": 1}
        # Quarantined, not resurrected: the slot reads as absent now.
        assert store.get("bad", namespace="results") is None
        assert store.stat()["corrupt"] == 0
        # The body survives as evidence.
        with closing(sqlite3.connect(store.path)) as conn:
            rows = conn.execute(
                "SELECT namespace, key, entry FROM quarantine"
            ).fetchall()
        assert rows == [("results", "bad", "{not json")]


def test_every_operation_closes_its_connection(tmp_path, monkeypatch):
    # A connection left to the garbage collector is an unclosed-database
    # ResourceWarning on Python 3.13+; every operation closes its own.
    opened = []
    connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        conn = connect(*args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr("repro.experiments.store.sqlite3.connect",
                        recording_connect)
    store = SqliteCacheStore(tmp_path / "cache.db")
    store.put("k", {"v": 1}, namespace="results")
    assert store.get("k", namespace="results") == {"v": 1}
    assert store.keys(namespace="results") == ["k"]
    assert store.stat()["entries"] == 1
    assert store.gc().kept == 1
    assert len(opened) == 6  # schema + the five operations
    for conn in opened:
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")


# ----------------------------------------------------------------------
# Cross-process writer safety.  Several processes hammer the same key via
# their own store handles; afterwards the entry must decode to one of the
# writers' payloads — no torn or interleaved bodies.

_PAD = "x" * 4096


def _hammer(uri: str, worker_id: int, rounds: int) -> None:
    handle = open_store(uri)
    for i in range(rounds):
        handle.put(
            "contended",
            {"worker": worker_id, "round": i, "pad": _PAD},
            namespace="results",
        )


@pytest.mark.parametrize("scheme", ["sqlite"])
def test_concurrent_same_key_writers_never_corrupt(scheme, tmp_path):
    uri = f"{scheme}:{tmp_path / 'cache.db'}"
    open_store(uri)  # create up front so every worker sees a valid store
    ctx = multiprocessing.get_context("fork")
    workers = [
        ctx.Process(target=_hammer, args=(uri, wid, 25)) for wid in range(4)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
        assert w.exitcode == 0

    store = open_store(uri)
    entry = store.get("contended", namespace="results")
    assert entry is not None, "entry unreadable after concurrent writes"
    assert entry["pad"] == _PAD
    assert entry["worker"] in range(4) and entry["round"] == 24
    assert store.counters()["corrupt"] == 0
    assert store.stat()["corrupt"] == 0


def test_result_cache_counts_and_quarantines_corrupt_entries(tmp_path, caplog):
    """The ResultCache bugfix: corrupt JSON is no longer silently swallowed —
    it shows up in ``corrupt_reads``/``stats()``, logs the offending path,
    and ``gc`` moves it into quarantine."""
    from repro.experiments import ExperimentRunner, ResultCache
    from repro.experiments.cache import cache_key
    from repro.experiments.runner import Scenario
    from repro.pipeline import PipelineConfig

    cache = ResultCache(tmp_path / "cache.db")
    scenario = Scenario("gpt4", "omp2cuda", "layout")
    fp = PipelineConfig().fingerprint()
    ExperimentRunner(cache=cache).run(
        models=["gpt4"], directions=["omp2cuda"], apps=["layout"]
    )
    digest = cache_key(scenario, "paper", 2024, fp)
    _corrupt_one(cache.store, "results", digest)

    with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
        assert cache.get(scenario, "paper", 2024, fp) is None
    assert cache.corrupt_reads == 1
    assert cache.stats()["corrupt"] == 1
    where = f"{tmp_path / 'cache.db'}:results/{digest}"
    assert any(where in r.getMessage() for r in caplog.records)

    report = cache.store.gc()
    assert report.quarantined_ids == [f"results/{digest}"]
    assert cache.store.keys(namespace="results") == []
