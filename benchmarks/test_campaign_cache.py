"""Campaign cache replay: cold run vs. cached re-run of a paper ablation.

The §III-B knowledge-ablation campaign executes its full grid once; a
re-run (sessions cleared, cache kept) replays every cell from the
content-addressed result cache without compiling a single baseline or
executing a single pipeline.  The measured speedup is what a campaign
sweep saves whenever variants share cells or a sweep is re-reported.

A third leg replays the same campaign into a *fresh* directory from a
shared sqlite cache store warmed with the cold run's entries — the
cross-host path a distributed (sharded) campaign takes when another
machine picks up the store artifact.

Emits ``BENCH_campaign_cache.json`` (picked up as a CI artifact) with the
cold/cached/shared-store timings, the replay speedups, and the execution
counters.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import pytest

from repro.experiments import CampaignRunner, get_preset, open_store
from repro.experiments.store import RESULTS_NAMESPACE

BENCH_ARTIFACT = Path("BENCH_campaign_cache.json")

#: Cached replay must beat cold execution by at least this factor; the
#: replay only reads JSON, so even a loaded CI box clears 2x easily.
MIN_SPEEDUP = 2.0


def _timed_run(root, **kw):
    runner = CampaignRunner(
        get_preset("knowledge-ablation"), root=root, jobs=4, **kw
    )
    start = time.perf_counter()
    result = runner.run()
    return runner, result, time.perf_counter() - start


@pytest.mark.bench
def test_campaign_cache_replay(benchmark, tmp_path):
    cold_runner, cold, cold_s = _timed_run(tmp_path)
    assert cold.total_pipeline_runs == sum(
        len(run.results) for run in cold.runs
    )

    # Drop the sessions so the re-run exercises the cache, not the sessions.
    shutil.rmtree(cold.directory / "sessions")

    def rerun():
        return _timed_run(tmp_path)

    warm_runner, warm, warm_s = benchmark.pedantic(rerun, rounds=1, iterations=1)
    assert warm.total_pipeline_runs == 0
    assert warm_runner.baselines.compile_count == 0
    assert warm_runner.cache.hits == cold.total_pipeline_runs
    assert [r.result.status for run in warm.runs for r in run.results] == [
        r.result.status for run in cold.runs for r in run.results
    ]

    # Shared-store leg: warm a sqlite store with the cold run's entries
    # and replay into a fresh directory through it — the path a second
    # host takes after downloading a sharded campaign's store artifact.
    store = open_store(f"sqlite:{tmp_path / 'store.db'}")
    own = open_store(cold.directory / "cache.db")
    for key in own.keys(namespace=RESULTS_NAMESPACE):
        store.put(
            key, own.get(key, namespace=RESULTS_NAMESPACE),
            namespace=RESULTS_NAMESPACE,
        )
    shared_runner, shared, shared_s = _timed_run(
        tmp_path / "shared-host", cache_store=store
    )
    assert shared.total_pipeline_runs == 0
    assert shared_runner.baselines.compile_count == 0
    assert [r.result.status for run in shared.runs for r in run.results] == [
        r.result.status for run in cold.runs for r in run.results
    ]

    speedup = cold_s / warm_s
    shared_speedup = cold_s / shared_s
    BENCH_ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "campaign_cache",
                "campaign": cold.spec.name,
                "scenarios": sum(len(run.results) for run in cold.runs),
                "cold_seconds": round(cold_s, 4),
                "cached_seconds": round(warm_s, 4),
                "shared_store_seconds": round(shared_s, 4),
                "speedup": round(speedup, 3),
                "shared_store_speedup": round(shared_speedup, 3),
                "pipeline_runs_cold": cold.total_pipeline_runs,
                "pipeline_runs_cached": warm.total_pipeline_runs,
                "pipeline_runs_shared_store": shared.total_pipeline_runs,
                "cache_hits": warm_runner.cache.hits,
                "shared_store_hits": shared_runner.cache.hits,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"\ncampaign cache replay: cold {cold_s:.2f}s -> cached "
          f"{warm_s:.2f}s ({speedup:.1f}x); sqlite store replay "
          f"{shared_s:.2f}s ({shared_speedup:.1f}x)")
    assert speedup > MIN_SPEEDUP
    assert shared_speedup > MIN_SPEEDUP
