"""Stage-graph redesign compatibility: artifacts must not move.

The pipeline was decomposed from one monolithic method into a stage
graph; these tests pin that the redesign is invisible to every artifact
consumer:

* **golden session bytes** — a jobs=1 session JSONL is byte-identical to
  one recorded by the pre-redesign pipeline (the digest below was
  captured from the monolithic pipeline immediately before the rewrite);
* **both execution paths carry traced stage spans** (the caller's thread
  at ``jobs=1``, worker processes above it) in-memory without perturbing
  sessions or the cache;
* **the cache replays** stage-graph results exactly.
"""

from __future__ import annotations

import hashlib

from repro.experiments import (
    ExperimentRunner,
    ResultCache,
    RunSession,
)
from repro.llm.profiles import CUDA2OMP, OMP2CUDA

#: SHA-256 of the session JSONL recorded by the pre-redesign monolithic
#: pipeline over this exact slice (jobs=1, profile=paper, seed=2024).
#: Covers 12 scenarios including the 34-correction Codestral/pathfinder
#: cell, so the whole loop structure is exercised.
GOLDEN_SLICE = dict(
    models=["gpt4", "codestral"],
    directions=[OMP2CUDA, CUDA2OMP],
    apps=["layout", "bsearch", "pathfinder"],
)
GOLDEN_SESSION_SHA256 = (
    "f0409b4e1991ce0ce680d4e13959f3a7a5b0e77f2af1d4d03e01b48cb09e4374"
)

SMALL = dict(models=["gpt4"], directions=[OMP2CUDA], apps=["layout", "bsearch"])


class TestPreRedesignByteIdentity:
    def test_jobs1_session_matches_pre_redesign_pipeline(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        runner = ExperimentRunner(jobs=1, session=RunSession(path))
        runner.run(**GOLDEN_SLICE)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SESSION_SHA256, (
            "stage-graph pipeline no longer reproduces the pre-redesign "
            "session bytes — a result field, status literal or attempt "
            "sequence drifted"
        )

    def test_tracing_does_not_perturb_the_golden_session_bytes(self, tmp_path):
        path = tmp_path / "traced.jsonl"
        runner = ExperimentRunner(
            jobs=1, session=RunSession(path), trace=True
        )
        runner.run(**GOLDEN_SLICE)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SESSION_SHA256, (
            "telemetry leaked into the science artifact: the traced "
            "session JSONL must be byte-identical to an untraced one"
        )
        # The timing-shaped data all went to the sidecar instead.
        from repro.telemetry import (
            load_trace_file,
            summarize_traces,
            trace_path_for,
        )

        sidecar = trace_path_for(path)
        assert sidecar.exists()
        data = load_trace_file(sidecar)
        assert len(data["traces"]) == 12
        assert sum(summarize_traces([sidecar])["statuses"].values()) == 12


def stage_walls(result):
    """Stage span name -> wall seconds (the per-stage time record)."""
    return {s["name"]: s["wall"] for s in result.spans if s["kind"] == "stage"}


class TestTimingTelemetryTransport:
    def test_thread_backend_results_carry_stage_seconds(self):
        # jobs=1: the scenarios run in the caller's thread.
        results = ExperimentRunner(jobs=1, trace=True).run(**SMALL)
        for sr in results:
            walls = stage_walls(sr.result)
            assert "generate" in walls, "thread result lost its stage spans"
            assert all(wall >= 0 for wall in walls.values())

    def test_process_backend_results_carry_stage_seconds(self):
        results = ExperimentRunner(jobs=2, trace=True).run(**SMALL)
        for sr in results:
            walls = stage_walls(sr.result)
            assert "generate" in walls, "worker stage spans not shipped"
            assert all(wall >= 0 for wall in walls.values())

    def test_sessions_stay_timing_free_on_both_backends(self, tmp_path):
        import json

        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            ExperimentRunner(
                jobs=jobs, session=RunSession(path), trace=True
            ).run(**SMALL)
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                if record.get("type") == "scenario":
                    assert "spans" not in record["result"]
                    assert "profile" not in record["result"]

    def test_traced_results_round_trip_byte_deterministically(self):
        import json

        results = ExperimentRunner(jobs=1, trace=True).run(**SMALL)
        for sr in results:
            assert sr.result.spans, "traced run produced no spans"
            payload = sr.to_dict(include_timings=True)
            wire = json.dumps(payload, sort_keys=True)
            # The worker→parent transport: dict → JSON → dict → object →
            # dict must reproduce the exact bytes, spans included.
            rebuilt = type(sr).from_dict(json.loads(wire))
            assert rebuilt.result.spans == sr.result.spans
            assert json.dumps(
                rebuilt.to_dict(include_timings=True), sort_keys=True
            ) == wire

    def test_process_backend_ships_spans_and_writes_the_sidecar(
        self, tmp_path
    ):
        from repro.telemetry import (
            load_trace_file,
            summarize_traces,
            trace_path_for,
        )

        path = tmp_path / "proc.jsonl"
        runner = ExperimentRunner(
            jobs=2, session=RunSession(path), trace=True
        )
        results = runner.run(**SMALL)
        for sr in results:
            assert sr.result.spans, "worker spans not shipped to the parent"
            kinds = {s["kind"] for s in sr.result.spans}
            assert "pipeline" in kinds and "stage" in kinds
        sidecar = trace_path_for(path)
        data = load_trace_file(sidecar)
        assert len(data["traces"]) == len(results)
        # The parent writes each shipped worker trace exactly once.
        statuses = summarize_traces([sidecar])["statuses"]
        assert sum(statuses.values()) == len(results)

    def test_untraced_runs_carry_no_spans(self):
        results = ExperimentRunner(jobs=1).run(**SMALL)
        for sr in results:
            assert sr.result.spans == []
            assert "spans" not in sr.to_dict(include_timings=True)

    def test_cache_replays_without_timings_but_identical_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        warm = ExperimentRunner(jobs=1, cache=cache, trace=True)
        originals = warm.run(**SMALL)
        replay_runner = ExperimentRunner(jobs=1, cache=cache, trace=True)
        replayed = replay_runner.run(**SMALL)
        assert replay_runner.pipeline_runs == 0
        for original, replay in zip(originals, replayed):
            # Equality ignores telemetry; replays carry no spans (they did
            # not execute a pipeline).
            assert replay.result == original.result
            assert replay.result.spans == []
            assert stage_walls(original.result)
