"""Stage-graph engine tests: events, timings, graph edits, edge cases."""

from __future__ import annotations

import json
from typing import List

import pytest

from repro.errors import PipelineError
from repro.hecbench import get_app
from repro.llm.base import ChatMessage, GenerationResult, LLMClient
from repro.llm.profiles import CellPlan
from repro.llm.simulated import SimulatedLLM
from repro.minilang.source import Dialect
from repro.pipeline import (
    PipelineBuilder,
    PipelineConfig,
    StagePipeline,
    Status,
    build_pipeline,
)
from repro.pipeline.events import (
    AttemptRecorded,
    CorrectionIssued,
    EventBus,
    StageFinished,
    StageStarted,
)
from repro.pipeline.stages import StageOutcome
from repro.experiments.runner import Scenario, ScenarioResult
from repro.telemetry import SpanTracer

APP = get_app("layout")

#: Machine stage names of the full default graph, in graph order.
FULL_GRAPH = [
    "baseline-prep", "context-prep", "generate", "compile-correct",
    "execute-correct", "verify", "metrics",
]


def make_pipeline(plan=None, config=None, subscribers=()):
    llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA,
                       plan=plan or CellPlan())
    return build_pipeline(llm, Dialect.OMP, Dialect.CUDA, config=config,
                          subscribers=subscribers)


def run_app(pipeline, app=APP):
    return pipeline.run(
        app.omp_source,
        reference_target_code=app.cuda_source,
        args=app.args,
        work_scale=app.work_scale,
        launch_scale=app.launch_scale,
    )


def traced_run(pipeline, app=APP):
    """Run with a :class:`SpanTracer` attached; the result carries its spans."""
    tracer = SpanTracer()
    pipeline.events.subscribe(tracer)
    result = run_app(pipeline, app=app)
    pipeline.events.unsubscribe(tracer)
    result.spans = tracer.drain()
    return result


def stage_spans(result):
    """(name, wall) of every stage entry, in execution order."""
    return [(s["name"], s["wall"]) for s in result.spans if s["kind"] == "stage"]


class ScriptedLLM(LLMClient):
    """Replays a fixed list of responses (self-prompts included)."""

    def __init__(self, responses: List[str], context_length: int = 1 << 20):
        self.name = "scripted"
        self.context_length = context_length
        self._responses = list(responses)
        self.calls = 0

    def chat(self, messages: List[ChatMessage]) -> GenerationResult:
        self.calls += 1
        if not self._responses:
            raise AssertionError("ScriptedLLM ran out of responses")
        return GenerationResult(text=self._responses.pop(0), model=self.name)


class TestEventBus:
    def test_stage_events_bracket_every_stage(self):
        events = []
        result = run_app(make_pipeline(subscribers=[events.append]))
        assert result.ok
        started = [e.stage for e in events if isinstance(e, StageStarted)]
        finished = [e.stage for e in events if isinstance(e, StageFinished)]
        assert started == finished == FULL_GRAPH
        assert all(e.seconds >= 0 for e in events
                   if isinstance(e, StageFinished))

    def test_correction_and_attempt_events_match_result(self):
        plan = CellPlan(
            self_corrections=3,
            fault_ids=("missing-semicolon", "kernel-called-directly",
                       "oob-guard-cuda"),
        )
        events = []
        pipeline = make_pipeline(plan=plan)
        pipeline.events.subscribe(events.append)
        result = run_app(pipeline, app=get_app("pathfinder"))
        assert result.ok and result.self_corrections == 3
        corrections = [e for e in events if isinstance(e, CorrectionIssued)]
        attempts = [e for e in events if isinstance(e, AttemptRecorded)]
        assert [c.corrections for c in corrections] == [1, 2, 3]
        assert [c.kind for c in corrections] == ["compile", "compile", "execute"]
        assert all(c.stderr for c in corrections)
        assert [(a.index, a.kind) for a in attempts] == [
            (i, a.kind) for i, a in enumerate(result.attempts)
        ]
        # The runtime fault jumps back into the compile loop (§III-D2).
        finishes = [e for e in events if isinstance(e, StageFinished)]
        assert any(e.outcome == "jump:compile-correct" for e in finishes)

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.publish(StageStarted(stage="x"))
        unsubscribe()
        unsubscribe()  # idempotent
        bus.publish(StageStarted(stage="y"))
        assert [e.stage for e in seen] == ["x"]

    def test_unsubscribe_by_callback_identity(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(StageStarted(stage="x"))
        assert bus.unsubscribe(seen.append) is True
        assert bus.unsubscribe(seen.append) is False  # already gone
        bus.publish(StageStarted(stage="y"))
        assert [e.stage for e in seen] == ["x"]

    def test_subscribed_context_manager_detaches_on_exit(self):
        bus = EventBus()
        seen = []
        record = seen.append
        with bus.subscribed(record) as callback:
            assert callback is record
            bus.publish(StageStarted(stage="inside"))
        bus.publish(StageStarted(stage="outside"))
        assert [e.stage for e in seen] == ["inside"]

    def test_subscribed_detaches_when_the_body_raises(self):
        bus = EventBus()
        seen = []
        with pytest.raises(RuntimeError):
            with bus.subscribed(seen.append):
                raise RuntimeError("boom")
        bus.publish(StageStarted(stage="after"))
        assert seen == []

    def test_poisoned_subscriber_does_not_abort_delivery(self, capsys):
        from repro.telemetry.log import configure
        from repro.telemetry.metrics import counter

        bus = EventBus()
        before, after = [], []
        bus.subscribe(before.append)

        def poisoned(event):
            raise RuntimeError("telemetry bug")

        bus.subscribe(poisoned)
        bus.subscribe(after.append)
        configure("warning")
        errors = counter("telemetry_subscriber_errors")
        baseline = errors.value(
            subscriber=f"{poisoned.__qualname__}"
        )
        bus.publish(StageStarted(stage="x"))
        bus.publish(StageStarted(stage="y"))
        # Every healthy subscriber saw every event, before AND after the
        # poisoned one in registration order.
        assert [e.stage for e in before] == ["x", "y"]
        assert [e.stage for e in after] == ["x", "y"]
        # The failure is observable: a warning naming the subscriber and
        # a labeled error counter, once per failed delivery.
        err = capsys.readouterr().err
        assert "poisoned" in err and "telemetry bug" in err
        assert "StageStarted" in err
        assert errors.value(
            subscriber=f"{poisoned.__qualname__}"
        ) == baseline + 2

    def test_poisoned_subscriber_does_not_break_a_pipeline_run(self):
        def poisoned(event):
            raise RuntimeError("boom")

        result = run_app(make_pipeline(subscribers=[poisoned]))
        assert result.ok


class TestStageTimings:
    """Stage spans are the one per-stage wall-time record."""

    def test_success_populates_every_stage(self):
        result = traced_run(make_pipeline())
        spans = stage_spans(result)
        assert [name for name, _ in spans] == FULL_GRAPH
        assert all(wall >= 0 for _, wall in spans)

    def test_reentered_loop_accumulates(self):
        plan = CellPlan(self_corrections=1, fault_ids=("oob-guard-cuda",))
        result = traced_run(make_pipeline(plan=plan), app=get_app("pathfinder"))
        assert result.ok
        # One runtime fault: the execute loop jumps back and the compile
        # loop is entered twice, one span per entry.
        assert [name for name, _ in stage_spans(result)] == (
            FULL_GRAPH[:5] + ["compile-correct", "execute-correct"]
            + FULL_GRAPH[5:]
        )

    def test_timings_are_per_run_not_cumulative(self):
        pipeline = make_pipeline()
        first = dict(stage_spans(traced_run(pipeline)))
        second = dict(stage_spans(traced_run(pipeline)))
        # Baselines are cached after the first run, so the second run's
        # baseline stage must reflect its own (cheaper) wall time.
        assert second["baseline-prep"] <= first["baseline-prep"]

    def test_timings_excluded_from_serialization_and_equality(self):
        result = traced_run(make_pipeline())
        data = result.to_dict()
        assert "spans" in result.to_dict(include_timings=True)
        assert "spans" not in data
        back = type(result).from_dict(json.loads(json.dumps(data)))
        assert back == result  # equality ignores the telemetry
        assert back.spans == []


class TestGraphEdits:
    def test_verify_stage_removed_by_config(self):
        config = PipelineConfig(verify_output=False)
        pipeline = make_pipeline(config=config)
        assert [s.name for s in pipeline.stages] == [
            n for n in FULL_GRAPH if n != "verify"
        ]

    def test_custom_stage_sequence(self):
        class Probe:
            name = "probe"

            def __init__(self):
                self.ran = 0

            def run(self, ctx) -> StageOutcome:
                self.ran += 1
                ctx.result.status = Status.SUCCESS
                return StageOutcome.halt()

            def describe(self):
                return ["Probe"]

        llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA, plan=CellPlan())
        builder = PipelineBuilder(llm, Dialect.OMP, Dialect.CUDA)
        probe = Probe()
        pipeline = builder.build(stages=[probe])
        result = pipeline.run(APP.omp_source)
        assert probe.ran == 1 and result.ok
        assert pipeline.stage_names() == ["Probe"]

    def test_duplicate_stage_names_rejected(self):
        llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA, plan=CellPlan())
        builder = PipelineBuilder(llm, Dialect.OMP, Dialect.CUDA)
        stages = builder.default_stages()
        with pytest.raises(PipelineError, match="unique"):
            builder.build(stages=stages + [stages[-1]])

    def test_unknown_jump_target_is_an_error(self):
        class Jumper:
            name = "jumper"

            def run(self, ctx) -> StageOutcome:
                return StageOutcome.jump("nowhere")

            def describe(self):
                return ["Jumper"]

        llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA, plan=CellPlan())
        pipeline = PipelineBuilder(llm, Dialect.OMP, Dialect.CUDA).build(
            stages=[Jumper()]
        )
        with pytest.raises(PipelineError, match="unknown stage"):
            pipeline.run(APP.omp_source)

    def test_empty_graph_rejected(self):
        llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA, plan=CellPlan())
        with pytest.raises(PipelineError):
            StagePipeline(stages=[], llm=llm, source_dialect=Dialect.OMP,
                          target_dialect=Dialect.CUDA,
                          config=PipelineConfig())


class TestContextWindowExceeded:
    """The §III-B budget check halts before any attempt is generated."""

    def _result(self, subscribers=()):
        # Tiny window: the knowledge-summary budget check trips before
        # any LLM call is made.
        llm = ScriptedLLM(responses=[], context_length=64)
        pipeline = build_pipeline(llm, Dialect.OMP, Dialect.CUDA,
                                  subscribers=subscribers)
        return run_app(pipeline)

    def test_early_return_shape(self):
        events = []
        result = self._result(subscribers=[events.append])
        assert result.status == Status.NO_CODE
        assert result.attempts == []
        assert result.generated_code is None
        assert result.prompt_tokens == 0
        assert "exceeds context window" in result.failure_detail
        # The run halts in context-prep: no later stage is entered.
        assert [e.stage for e in events if isinstance(e, StageFinished)] == [
            "baseline-prep", "context-prep"
        ]

    def test_round_trips_through_scenario_result(self):
        result = self._result()
        sr = ScenarioResult(
            scenario=Scenario("gpt4", "omp2cuda", APP.name), result=result
        )
        back = ScenarioResult.from_dict(json.loads(json.dumps(sr.to_dict())))
        assert back.result == result
        assert back.result.failure_detail == result.failure_detail
        assert back.result.attempts == []


class TestCorrectionWithoutCodeBlock:
    """A correction that returns prose keeps its triggering stderr."""

    def _broken_code(self):
        return "```cuda\nint main() { return undeclared; }\n```"

    def test_compile_correction_no_code_records_stderr(self):
        responses = [
            "summary of the knowledge document",   # self-prompt: summary
            "describes the program",               # self-prompt: description
            self._broken_code(),                   # translation
            "Sorry, I cannot fix this program.",   # correction: no fence
        ]
        llm = ScriptedLLM(responses)
        pipeline = build_pipeline(llm, Dialect.OMP, Dialect.CUDA)
        result = pipeline.run(APP.omp_source, args=APP.args,
                              work_scale=APP.work_scale,
                              launch_scale=APP.launch_scale)
        assert result.status == Status.NO_CODE
        assert result.failure_detail == "response contained no code block"
        assert [a.kind for a in result.attempts] == [
            "initial", "compile-correction"
        ]
        failing = result.attempts[-1]
        assert failing.code is None
        # The stderr that drove the failed correction is preserved.
        assert "undeclared" in failing.stderr
        assert failing.stderr == result.attempts[0].stderr
        assert llm.calls == 4

    def test_initial_no_code_has_no_stderr(self):
        responses = [
            "summary", "description", "no code here at all",
        ]
        llm = ScriptedLLM(responses)
        pipeline = build_pipeline(llm, Dialect.OMP, Dialect.CUDA)
        result = pipeline.run(APP.omp_source, args=APP.args,
                              work_scale=APP.work_scale,
                              launch_scale=APP.launch_scale)
        assert result.status == Status.NO_CODE
        assert [a.kind for a in result.attempts] == ["initial"]
        assert result.attempts[0].stderr == ""

