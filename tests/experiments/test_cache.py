"""Content-addressed result cache: hit/miss, fingerprint invalidation,
corruption tolerance, and integration with the parallel runner."""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing

from repro.experiments import ParallelExperimentRunner, ResultCache, cache_key
from repro.experiments.runner import Scenario
from repro.llm.profiles import OMP2CUDA
from repro.pipeline import PipelineConfig

SCENARIO = Scenario("gpt4", OMP2CUDA, "layout")
FP = PipelineConfig().fingerprint()


def _run_one(cache, config=None, **kw):
    runner = ParallelExperimentRunner(config=config, cache=cache, **kw)
    results = runner.run(models=["gpt4"], directions=[OMP2CUDA],
                         apps=["layout"])
    return runner, results


def _rewrite_entry(cache, digest, body):
    """Overwrite one stored result's raw text, behind the cache API."""
    with closing(sqlite3.connect(cache.store.path)) as conn, conn:
        conn.execute(
            "UPDATE entries SET entry=? WHERE namespace='results' AND key=?",
            (body, digest),
        )


class TestFingerprint:
    def test_equal_configs_share_a_fingerprint(self):
        # However the config was built: defaults and explicit-default values
        # are the same cache identity.
        assert PipelineConfig().fingerprint() == PipelineConfig(
            max_corrections=40
        ).fingerprint()

    def test_every_ablation_switch_changes_the_fingerprint(self):
        base = PipelineConfig().fingerprint()
        assert PipelineConfig(max_corrections=10).fingerprint() != base
        assert PipelineConfig(include_knowledge=False).fingerprint() != base
        assert PipelineConfig(self_correction=False).fingerprint() != base
        assert PipelineConfig(verify_output=False).fingerprint() != base


class TestCacheKeys:
    def test_synth_scenarios_get_distinct_cache_keys(self):
        # A generated app can never collide with a Table IV entry (or with a
        # differently-parameterized generation of the same family).
        table4 = cache_key(SCENARIO, "paper", 2024, FP)
        synth = cache_key(
            Scenario("gpt4", OMP2CUDA, "synth-stencil-d1-s0"),
            "paper", 2024, FP,
        )
        other_seed = cache_key(
            Scenario("gpt4", OMP2CUDA, "synth-stencil-d1-s1"),
            "paper", 2024, FP,
        )
        assert len({table4, synth, other_seed}) == 3


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(SCENARIO, "paper", 2024, FP) is None
        assert cache.misses == 1

        _, results = _run_one(cache)
        assert cache.stores == 1 and len(cache) == 1

        replayed = cache.get(SCENARIO, "paper", 2024, FP)
        assert cache.hits == 1
        assert replayed is not None
        assert replayed.scenario == SCENARIO
        assert replayed.result.status == results[0].result.status
        assert replayed.metrics == results[0].metrics

    def test_key_covers_all_identity_dimensions(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        _run_one(cache)
        other_fp = PipelineConfig(include_knowledge=False).fingerprint()
        # Same scenario under any other identity dimension is a miss.
        assert cache.get(SCENARIO, "stochastic", 2024, FP) is None
        assert cache.get(SCENARIO, "paper", 7, FP) is None
        assert cache.get(SCENARIO, "paper", 2024, other_fp) is None
        assert cache.get(
            Scenario("codestral", OMP2CUDA, "layout"), "paper", 2024, FP
        ) is None
        # 4 probe misses here + the runner's own initial miss.
        assert cache.hits == 0 and cache.misses == 5

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        _run_one(cache)
        digest = cache_key(SCENARIO, "paper", 2024, FP)

        _rewrite_entry(cache, digest, "{not json")
        assert cache.get(SCENARIO, "paper", 2024, FP) is None

        # Valid JSON whose stored key does not match its digest (tampering /
        # format drift) is rejected too.
        from repro.experiments.cache import CACHE_FORMAT_VERSION

        entry = {"version": CACHE_FORMAT_VERSION, "key": "0" * 64, "result": {}}
        _rewrite_entry(cache, digest, json.dumps(entry))
        assert cache.get(SCENARIO, "paper", 2024, FP) is None

    def test_unknown_format_version_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        _run_one(cache)
        digest = cache_key(SCENARIO, "paper", 2024, FP)
        entry = cache.store.get(digest, namespace="results")
        entry["version"] = 999
        _rewrite_entry(cache, digest, json.dumps(entry))
        assert cache.get(SCENARIO, "paper", 2024, FP) is None


class TestRunnerIntegration:
    def test_second_run_replays_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        first, a = _run_one(cache)
        assert first.pipeline_runs == 1

        second, b = _run_one(cache)
        # Nothing executed: no pipeline run, no baseline compile.
        assert second.pipeline_runs == 0
        assert second.baselines.compile_count == 0
        assert [(r.scenario, r.result.status, r.metrics) for r in a] == [
            (r.scenario, r.result.status, r.metrics) for r in b
        ]

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        _run_one(cache)
        ablated, _ = _run_one(
            cache, config=PipelineConfig(include_knowledge=False)
        )
        assert ablated.pipeline_runs == 1  # cache did not leak across configs
        assert len(cache) == 2

    def test_profile_and_seed_invalidate(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        _run_one(cache)
        stochastic, _ = _run_one(cache, profile="stochastic", seed=7)
        assert stochastic.pipeline_runs == 1
        reseeded, _ = _run_one(cache, profile="stochastic", seed=8)
        assert reseeded.pipeline_runs == 1
        assert len(cache) == 3

    def test_cache_hits_are_recorded_into_the_session(self, tmp_path):
        from repro.experiments import RunSession

        cache = ResultCache(tmp_path / "cache")
        _run_one(cache)
        path = tmp_path / "s.jsonl"
        _run_one(cache, session=RunSession(path))
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert sum(1 for ln in lines if ln["type"] == "scenario") == 1

    def test_session_header_records_config_fingerprint(self, tmp_path):
        from repro.experiments import RunSession

        path = tmp_path / "s.jsonl"
        _run_one(None, session=RunSession(path))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["config_fingerprint"] == FP

    def test_resume_refuses_mismatched_config(self, tmp_path):
        import pytest

        from repro.experiments import RunSession, SessionError

        path = tmp_path / "s.jsonl"
        _run_one(None, session=RunSession(path))
        with pytest.raises(SessionError):
            _run_one(
                None,
                config=PipelineConfig(include_knowledge=False),
                session=RunSession(path, resume=True),
            )
