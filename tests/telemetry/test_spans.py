"""SpanTracer against the real pipeline event types."""

from __future__ import annotations

from repro.pipeline.events import (
    CompileFinished,
    ExecutionFinished,
    LlmCallFinished,
    PipelineFinished,
    PipelineStarted,
    StageFinished,
    StageStarted,
)
from repro.telemetry.spans import Span, SpanTracer

PROFILE = {"steps": 500, "kernel_launches": 3, "flat_launches": 3,
           "atomics": 0, "sim_seconds": 0.125}


def trace_one_run(tracer):
    tracer(PipelineStarted(model="GPT-4", source_dialect="omp",
                           target_dialect="cuda"))
    tracer(StageStarted(stage="generate"))
    tracer(LlmCallFinished(stage="generate", purpose="generate",
                           model="GPT-4", seconds=0.25,
                           prompt_tokens=120, completion_tokens=40))
    tracer(StageFinished(stage="generate", seconds=0.3, outcome="proceed"))
    tracer(StageStarted(stage="compile-correct"))
    tracer(CompileFinished(stage="compile-correct", ok=True, seconds=0.02,
                           cached=False))
    tracer(StageFinished(stage="compile-correct", seconds=0.05,
                         outcome="proceed"))
    tracer(StageStarted(stage="execute-correct"))
    tracer(ExecutionFinished(stage="execute-correct", ok=True, seconds=0.1,
                             profile=PROFILE))
    tracer(StageFinished(stage="execute-correct", seconds=0.12,
                         outcome="proceed"))
    tracer(PipelineFinished(status="success", seconds=0.5))
    return tracer.drain()


class TestSpanTracer:
    def test_builds_the_span_tree(self):
        spans = trace_one_run(SpanTracer())
        by_id = {s["id"]: s for s in spans}
        root = by_id[0]
        assert root["kind"] == "pipeline" and "parent" not in root
        assert root["wall"] == 0.5
        assert root["attrs"]["status"] == "success"
        assert root["attrs"]["model"] == "GPT-4"
        assert "cpu" in root

        stages = [s for s in spans if s["kind"] == "stage"]
        assert [s["name"] for s in stages] == [
            "generate", "compile-correct", "execute-correct"
        ]
        assert all(s["parent"] == 0 for s in stages)
        assert [s["wall"] for s in stages] == [0.3, 0.05, 0.12]
        assert all(s["attrs"]["outcome"] == "proceed" for s in stages)
        assert all("cpu" in s for s in stages)

    def test_leaf_spans_parent_to_their_stage(self):
        spans = trace_one_run(SpanTracer())
        by_kind = {s["kind"]: s for s in spans}
        stage_ids = {s["name"]: s["id"] for s in spans if s["kind"] == "stage"}
        assert by_kind["llm"]["parent"] == stage_ids["generate"]
        assert by_kind["compile"]["parent"] == stage_ids["compile-correct"]
        assert by_kind["exec"]["parent"] == stage_ids["execute-correct"]
        assert by_kind["llm"]["attrs"] == {
            "purpose": "generate", "model": "GPT-4",
            "prompt_tokens": 120, "completion_tokens": 40,
        }
        assert by_kind["exec"]["attrs"] == {"ok": True, "profile": PROFILE}

    def test_exec_leaf_carries_the_runtime_profile(self):
        tracer = SpanTracer()
        tracer(PipelineStarted(model="GPT-4", source_dialect="omp",
                               target_dialect="cuda"))
        tracer(StageStarted(stage="execute-correct"))
        tracer(ExecutionFinished(stage="execute-correct", ok=True,
                                 seconds=0.1, profile=PROFILE))
        tracer(StageFinished(stage="execute-correct", seconds=0.12,
                             outcome="proceed"))
        tracer(PipelineFinished(status="success", seconds=0.5))
        spans = tracer.drain()
        exec_span = next(s for s in spans if s["kind"] == "exec")
        assert exec_span["attrs"]["profile"] == PROFILE

    def test_leaf_start_is_backdated_by_its_duration(self):
        spans = trace_one_run(SpanTracer())
        llm = next(s for s in spans if s["kind"] == "llm")
        stage = next(s for s in spans if s["name"] == "generate"
                     and s["kind"] == "stage")
        # The event arrived 0.25s after the call began; the span must not
        # start after it ended, and never before the run's origin.
        assert 0.0 <= llm["start"] <= stage["start"] + 0.3

    def test_spans_are_in_to_dict_form(self):
        # Key order included: a span reads as ``Span.to_dict`` writes it,
        # whether its run finished or not.
        tracer = SpanTracer()
        finished = trace_one_run(tracer)
        tracer(PipelineStarted(model="GPT-4", source_dialect="omp",
                               target_dialect="cuda"))
        tracer(StageStarted(stage="generate"))
        for span in finished + tracer.drain():
            again = Span.from_dict(span).to_dict()
            assert again == span and list(again) == list(span)

    def test_drain_resets_for_the_next_run(self):
        tracer = SpanTracer()
        first = trace_one_run(tracer)
        second = trace_one_run(tracer)
        assert [s["id"] for s in first] == [s["id"] for s in second]
        assert tracer.drain() == []

    def test_tracer_ignores_events_before_pipeline_started(self):
        tracer = SpanTracer()
        tracer(StageFinished(stage="generate", seconds=0.1, outcome="proceed"))
        tracer(CompileFinished(stage="x", ok=True, seconds=0.1, cached=False))
        spans = tracer.drain()
        # No root: leaves float parentless but nothing crashes.
        assert all(s["kind"] != "pipeline" for s in spans)


class TestSpanRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        span = Span(id=3, name="generate", kind="llm", start=0.1234567,
                    wall=0.25, parent=1, cpu=0.2,
                    attrs={"purpose": "generate"})
        restored = Span.from_dict(span.to_dict())
        assert restored.id == 3 and restored.parent == 1
        assert restored.start == round(0.1234567, 6)
        assert restored.attrs == {"purpose": "generate"}

    def test_to_dict_omits_empty_optional_fields(self):
        data = Span(id=0, name="pipeline", kind="pipeline", start=0.0).to_dict()
        assert "parent" not in data and "cpu" not in data
        assert "attrs" not in data
