"""Content-addressed scenario-result cache.

A :class:`ResultCache` stores one JSON entry per completed scenario, named
by the SHA-256 digest of the cell's full identity::

    (scenario key, profile, seed, PipelineConfig fingerprint)

Two experiment cells with the same identity are guaranteed to produce the
same result (the simulated LLMs are deterministic given profile + seed, and
the config fingerprint covers every ablation switch), so a cache hit can be
replayed instead of re-executing the pipeline.  This is what lets a
campaign's shared cells — e.g. the unablated baseline variant that appears
in every paper ablation — run once and be replayed by every other variant
and by every re-run of the campaign.

Unlike a :class:`~repro.experiments.session.RunSession`, which records the
progress of *one* grid, the cache is a cross-run store: it is consulted
before a scenario is scheduled and written as each scenario completes.
Entries whose stored identity does not match their digest (tampering,
partial writes, format drift) are treated as misses and overwritten.

Entries live in the ``results`` namespace of a
:class:`~repro.experiments.store.SqliteCacheStore` — a campaign's own
``<campaign>/cache.db`` or a store file shared by every host of a sharded
campaign.  Corrupt entries are counted by the store (``corrupt_reads``),
logged with the offending row, and quarantined by ``repro cache gc``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.experiments.runner import Scenario, ScenarioResult
from repro.experiments.store import (
    RESULTS_NAMESPACE,
    SqliteCacheStore,
    open_store,
)

#: Bumped when the on-disk entry shape changes incompatibly, or when the
#: results an identical cell identity would produce change (version 2:
#: unplanned scenarios salt the LLM seed per app, so stochastic-profile
#: entries recorded under version 1 no longer match what a fresh run
#: computes — replaying them would silently blend two behaviour models).
CACHE_FORMAT_VERSION = 2


def cache_key(
    scenario: Scenario, profile: str, seed: int, config_fingerprint: str
) -> str:
    """SHA-256 digest of a cell's full identity (the entry's store key)."""
    payload = json.dumps(
        {
            "version": CACHE_FORMAT_VERSION,
            "scenario": scenario.to_dict(),
            "profile": profile,
            "seed": seed,
            "config_fingerprint": config_fingerprint,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Store-backed, content-addressed cache of :class:`ScenarioResult`s.

    ``store`` is a ``sqlite:`` URI, a path (a sqlite file) or an open
    :class:`~repro.experiments.store.SqliteCacheStore`, resolved by
    :func:`~repro.experiments.store.open_store`.  Entries live in the
    store's ``results`` namespace.  Thread-safe; ``hits`` / ``misses`` /
    ``stores`` expose the traffic — the campaign replay tests assert on
    them — and ``corrupt_reads`` counts undecodable entries the store
    encountered.
    """

    namespace = RESULTS_NAMESPACE

    def __init__(self, store: Union[str, Path, SqliteCacheStore]) -> None:
        self.store = open_store(store)

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self.store.hits

    @property
    def misses(self) -> int:
        return self.store.misses

    @property
    def stores(self) -> int:
        return self.store.stores

    @property
    def corrupt_reads(self) -> int:
        """Undecodable entries seen by this handle (also logged)."""
        return self.store.corrupt

    def get(
        self,
        scenario: Scenario,
        profile: str,
        seed: int,
        config_fingerprint: str,
    ) -> Optional[ScenarioResult]:
        """Return the cached result for this cell, or None on a miss."""
        digest = cache_key(scenario, profile, seed, config_fingerprint)
        entry = self.store.get(digest, namespace=self.namespace)
        if entry is None:
            return None
        if (
            entry.get("version") != CACHE_FORMAT_VERSION
            or entry.get("key") != digest
        ):
            self._demote_hit()
            return None
        try:
            return ScenarioResult.from_dict(entry["result"])
        except (KeyError, TypeError):
            self._demote_hit()
            return None

    def _demote_hit(self) -> None:
        # The store saw a well-formed JSON object and counted a hit, but
        # the entry is unusable at this layer (format drift, tampering):
        # reclassify, so hit/miss counters describe replayable results.
        self.store.reclassify_hit_as_miss()

    def put(
        self,
        result: ScenarioResult,
        profile: str,
        seed: int,
        config_fingerprint: str,
    ) -> str:
        """Store one completed scenario; returns the entry's digest."""
        digest = cache_key(result.scenario, profile, seed, config_fingerprint)
        entry = {
            "version": CACHE_FORMAT_VERSION,
            "key": digest,
            "profile": profile,
            "seed": seed,
            "config_fingerprint": config_fingerprint,
            "result": result.to_dict(),
        }
        self.store.put(digest, entry, namespace=self.namespace)
        return digest

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Traffic counters plus the backend's identity."""
        counters = self.store.counters()
        counters["backend"] = self.store.backend
        counters["namespace"] = self.namespace
        return counters

    def __len__(self) -> int:
        return len(self.store.keys(namespace=self.namespace))
