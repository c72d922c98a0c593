"""Serial vs worker-process grid runs: equality, sessions, traces, cache keys.

``ExperimentRunner`` runs pending scenarios in the caller's thread at
``jobs=1`` and on worker processes above it.  The process path must be a
pure transport change: same scenarios, same results, same on-disk
artifacts.  These tests pin

* a differential check over one traced, session-backed stochastic slice:
  identical result payloads, session headers and scenario lines, and
  per-scenario span trees at ``jobs=1`` and ``jobs=2``;
* byte-identical session JSONL for ``jobs=1`` runs, whole or resumed;
* cache-key stability — entries written by one path are hits for the
  other, and the digest format itself is frozen against drift;
* a worker's crash dump naming the scenario that raised in it.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import BaselineError
from repro.experiments import (
    ExperimentRunner,
    ResultCache,
    RunSession,
    cache_key,
    resolve_jobs,
)
from repro.experiments.runner import Scenario
from repro.hecbench import Suite, get_app
from repro.llm.profiles import OMP2CUDA
from repro.pipeline import PipelineConfig
from repro.telemetry import load_trace_file, trace_path_for
from repro.telemetry import recorder as flight
from repro.telemetry.recorder import FLIGHT_DIR_ENV

#: Small but representative slice: 2 models x 2 apps x 1 direction.
SLICE = dict(
    models=["gpt4", "codestral"],
    directions=[OMP2CUDA],
    apps=["layout", "bsearch"],
)

#: Span fields that measure the host, not the run: wall-clock offsets and
#: durations.
_TIMING_FIELDS = ("start", "wall", "cpu")


def _payloads(results):
    """Full serialized content — stricter than status/metrics signatures."""
    return [r.to_dict() for r in results]


def _span_tree(spans):
    """A trace's spans without timings or the compile memo's ``cached``
    flag (each worker process starts with its own memo)."""
    tree = []
    for span in spans:
        span = {k: v for k, v in span.items() if k not in _TIMING_FIELDS}
        if span["kind"] == "compile":
            span["attrs"] = {
                k: v for k, v in span["attrs"].items() if k != "cached"
            }
        tree.append(span)
    return tree


def _traced_session_run(path, jobs):
    """Run the stochastic slice traced into a session; its artifacts."""
    results = ExperimentRunner(
        profile="stochastic", seed=11, jobs=jobs,
        session=RunSession(path), trace=True,
    ).run(**SLICE)
    header, *scenario_lines = path.read_text(encoding="utf-8").splitlines()
    traces = {
        (t["scenario"]["model"], t["scenario"]["direction"],
         t["scenario"]["app"]): _span_tree(t["spans"])
        for t in load_trace_file(trace_path_for(path))["traces"]
    }
    return results, header, scenario_lines, traces


class TestSerialProcessDifferential:
    def test_traced_stochastic_slice_artifacts_match(self, tmp_path):
        serial, s_header, s_lines, s_traces = _traced_session_run(
            tmp_path / "serial.jsonl", jobs=1
        )
        process, p_header, p_lines, p_traces = _traced_session_run(
            tmp_path / "process.jsonl", jobs=2
        )
        assert _payloads(process) == _payloads(serial)
        assert p_header == s_header
        # Worker processes record scenarios in completion order.
        assert sorted(p_lines) == sorted(s_lines)
        assert len(s_traces) == len(serial) == 4
        assert p_traces == s_traces
        # The in-memory spans match the sidecar on both paths.
        for results, traces in ((serial, s_traces), (process, p_traces)):
            for sr in results:
                assert _span_tree(sr.result.spans) == traces[sr.scenario.key]


class TestBackendEquality:
    def test_process_counts_pipeline_runs(self):
        runner = ExperimentRunner(jobs=2)
        results = runner.run(**SLICE)
        assert runner.pipeline_runs == len(results) == 4


class TestSessionByteIdentity:
    def test_jobs1_sessions_are_byte_identical(self, tmp_path):
        # A jobs=1 session written in one run equals one written in two
        # resumed legs: results land in enumeration order either way.
        kw = dict(models=["gpt4"], directions=[OMP2CUDA])
        whole = tmp_path / "whole.jsonl"
        legs = tmp_path / "legs.jsonl"
        ExperimentRunner(session=RunSession(whole)).run(
            apps=["layout", "entropy"], **kw
        )
        ExperimentRunner(session=RunSession(legs)).run(apps=["layout"], **kw)
        ExperimentRunner(session=RunSession(legs, resume=True)).run(
            apps=["layout", "entropy"], **kw
        )
        assert legs.read_bytes() == whole.read_bytes()

    def test_thread_session_resumes_under_process_backend(self, tmp_path):
        # Recorded in the caller's thread, resumed on worker processes.
        path = tmp_path / "grid.jsonl"
        first = ExperimentRunner(jobs=1, session=RunSession(path))
        first.run(models=["gpt4"], directions=[OMP2CUDA], apps=["layout"])
        resumed = ExperimentRunner(
            jobs=2, session=RunSession(path, resume=True)
        )
        results = resumed.run(
            models=["gpt4"], directions=[OMP2CUDA],
            apps=["layout", "entropy", "bsearch"],
        )
        # layout replayed from the session: only entropy and bsearch ran.
        assert resumed.pipeline_runs == 2
        assert [r.scenario.app_name for r in results] == [
            "layout", "entropy", "bsearch"
        ]


class TestCacheCompatibility:
    def test_thread_populated_cache_replays_under_process(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kw = dict(models=["gpt4"], directions=[OMP2CUDA],
                  apps=["layout", "entropy"])
        warm = ExperimentRunner(jobs=1, cache=cache)
        warm.run(**kw)
        assert cache.stores == 2

        replay = ExperimentRunner(jobs=2, cache=cache)
        results = replay.run(**kw)
        assert replay.pipeline_runs == 0  # pure replay, no worker processes
        assert cache.hits == 2
        assert _payloads(results) == _payloads(warm.run(**kw))

    def test_cache_key_format_is_frozen(self):
        # Both paths share one identity function; this digest must not move
        # without a deliberate CACHE_FORMAT_VERSION bump (entries on disk
        # would silently stop matching).
        digest = cache_key(
            Scenario("gpt4", "omp2cuda", "layout"),
            "paper",
            2024,
            PipelineConfig().fingerprint(),
        )
        assert digest == (
            "65695de65812441ca0507806c5caabea01888a3c3e45bd3e6017955c813b9dad"
        )


class TestJobsResolution:
    def test_auto_spellings(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_jobs("auto") == cores
        assert resolve_jobs(0) == cores
        assert resolve_jobs(3) == 3

    def test_rejects_bad_spellings(self):
        for bad in (-1, "fast", 1.5, True, False):
            with pytest.raises(ValueError):
                resolve_jobs(bad)


class TestWorkerCrashDump:
    def test_flight_dump_names_the_failing_scenario(
        self, tmp_path, monkeypatch
    ):
        # A copy of layout whose CUDA reference does not compile: its
        # baseline step builds the OMP baseline, then raises inside
        # pipeline.run, while layout, started right after it, runs in the
        # other worker.  (Two threads sharing one recorder would dump
        # layout's context here.)
        layout = get_app("layout")
        broken = dataclasses.replace(
            layout, name="layout-broken", cuda_source="int main( {"
        )
        suite = Suite("crash", (broken, layout))
        flights = tmp_path / "flights"
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(flights))
        # Workers build their own recorder, which reads the variable.
        monkeypatch.setattr(flight, "_RECORDER", None)

        runner = ExperimentRunner(jobs=2, suite=suite, trace=True)
        with pytest.raises(BaselineError):
            runner.run(models=["gpt4"], directions=[OMP2CUDA])

        dumps = [
            json.loads(p.read_text(encoding="utf-8"))
            for p in flights.glob("flight-*.json")
        ]
        assert dumps, "the failing worker wrote no flight dump"
        failing = Scenario("gpt4", OMP2CUDA, "layout-broken").to_dict()
        for dump in dumps:
            assert dump["reason"] == "pipeline-exception"
            assert dump["context"]["scenario"] == failing
            assert dump["exception"]["type"] == "BaselineError"
