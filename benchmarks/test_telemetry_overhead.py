"""Cost of the telemetry layer: the 5% bookkeeping budget, measured.

Three figures, emitted as ``BENCH_telemetry_overhead.json`` (a CI
artifact; the bench-throughput job gates on the overhead fraction):

* **events/sec through the bus** — a representative event mix published
  to an :class:`EventBus` with the production subscriber set attached
  (a :class:`SpanTracer` plus a :class:`FlightRecorder`), i.e. the
  marginal cost of every instrumented point in a traced pipeline;
* **span serialization rate** — span dicts → compact JSONL, the
  per-trace cost of the ``.trace.jsonl`` sidecar writer;
* **overhead fraction** — wall time of a traced grid (spans, flight
  ring, sidecar writes) over an untraced one: the median ratio over
  interleaved pairs of the two legs, so host speed drift cancels.  Must
  stay under :data:`MAX_TELEMETRY_OVERHEAD`.

Both grid legs share one warmed :class:`BaselinePreparer` and the
process-wide compile cache, and each records a fresh :class:`RunSession`
(a science artifact, written traced or not), so they pay identical
toolchain and session costs and the difference isolates the telemetry
machinery.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import pytest

from repro.experiments import ExperimentRunner, RunSession
from repro.pipeline import (
    BaselinePreparer,
    CompileFinished,
    EventBus,
    ExecutionFinished,
    LlmCallFinished,
    PipelineFinished,
    PipelineStarted,
    StageFinished,
    StageStarted,
)
from repro.telemetry import FlightRecorder, RuntimeProfile, SpanTracer
from repro.telemetry.tracefile import _dumps

#: Ceiling on traced-vs-untraced grid wall time (the bookkeeping budget).
MAX_TELEMETRY_OVERHEAD = 0.05
#: The measured grid: 1 model x 1 direction x 4 apps = 4 scenarios.
GRID = dict(
    models=["gpt4"],
    directions=["omp2cuda"],
    apps=["layout", "pathfinder", "matrix-rotate", "bsearch"],
)
#: Event-mix repetitions for the bus throughput figure.
EVENT_ROUNDS = 20_000

BENCH_ARTIFACT = Path("BENCH_telemetry_overhead.json")

#: One pipeline run's worth of bus traffic (8 events/round).
EVENT_MIX = (
    PipelineStarted(model="GPT-4", source_dialect="omp",
                    target_dialect="cuda"),
    StageStarted(stage="generate"),
    LlmCallFinished(stage="generate", purpose="generate", model="GPT-4",
                    seconds=0.01, prompt_tokens=100, completion_tokens=40),
    StageFinished(stage="generate", seconds=0.02, outcome="proceed"),
    StageStarted(stage="compile-correct"),
    CompileFinished(stage="compile-correct", ok=True, seconds=0.001,
                    cached=True),
    ExecutionFinished(stage="compile-correct", ok=True, seconds=0.005,
                      profile=RuntimeProfile.from_dict({
                          "steps": 100, "kernel_launches": 2,
                          "flat_launches": 2,
                      }).to_dict()),
    StageFinished(stage="compile-correct", seconds=0.01, outcome="proceed"),
)


def _events_per_second() -> float:
    bus = EventBus()
    tracer = SpanTracer()
    bus.subscribe(tracer)
    bus.subscribe(FlightRecorder())
    start = time.perf_counter()
    for _ in range(EVENT_ROUNDS):
        for event in EVENT_MIX:
            bus.publish(event)
        bus.publish(PipelineFinished(status="success", seconds=0.05))
        tracer.drain()
    elapsed = time.perf_counter() - start
    return EVENT_ROUNDS * (len(EVENT_MIX) + 1) / elapsed


def _span_serialization_rate(spans) -> float:
    rounds = 2_000
    start = time.perf_counter()
    for i in range(rounds):
        _dumps({"record": "trace", "trace_id": i,
                "scenario": {"model": "gpt4"}, "spans": spans})
    elapsed = time.perf_counter() - start
    return rounds * len(spans) / elapsed


def _timed_grid(baselines, trace: bool, session_path=None) -> float:
    session = RunSession(session_path) if session_path is not None else None
    runner = ExperimentRunner(
        jobs=1, baselines=baselines, session=session, trace=trace
    )
    start = time.perf_counter()
    results = runner.run(**GRID)
    elapsed = time.perf_counter() - start
    assert len(results) == 4
    return elapsed


@pytest.mark.bench
def test_telemetry_overhead_stays_under_budget(tmp_path, paired_overhead):
    baselines = BaselinePreparer()
    # Warm the shared baselines and the process-wide compile cache so
    # both timed legs pay identical toolchain costs.
    _timed_grid(baselines, trace=False)

    sessions = (tmp_path / f"t{i}.jsonl" for i in itertools.count())
    measured = paired_overhead(
        lambda: _timed_grid(baselines, trace=False,
                            session_path=next(sessions)),
        lambda: _timed_grid(baselines, trace=True,
                            session_path=next(sessions)),
        MAX_TELEMETRY_OVERHEAD,
    )
    overhead = max(0.0, measured.fraction)
    plain, traced = measured.base_seconds, measured.variant_seconds

    # Spans from one real traced run feed the serialization figure.
    tracer_runner = ExperimentRunner(
        jobs=1, baselines=baselines, trace=True
    )
    sample = tracer_runner.run(
        models=["gpt4"], directions=["omp2cuda"], apps=["layout"]
    )[0].result.spans
    assert sample, "traced run produced no spans"

    events_per_s = _events_per_second()
    spans_per_s = _span_serialization_rate(sample)

    BENCH_ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "telemetry_overhead",
                "scenarios": len(GRID["apps"]),
                "pairs": measured.pairs,
                "untraced_seconds": round(plain, 4),
                "traced_seconds": round(traced, 4),
                "overhead_fraction": round(overhead, 5),
                "budget_fraction": MAX_TELEMETRY_OVERHEAD,
                "bus_events_per_second": round(events_per_s),
                "span_serialization_per_second": round(spans_per_s),
                "sample_spans_per_trace": len(sample),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    assert events_per_s > 50_000, (
        f"event bus + tracer + flight ring sustain only "
        f"{events_per_s:,.0f} events/s"
    )
    assert spans_per_s > 10_000, (
        f"span serialization sustains only {spans_per_s:,.0f} spans/s"
    )
    assert overhead < MAX_TELEMETRY_OVERHEAD, (
        f"tracing costs {overhead:.1%} of grid wall time "
        f"(budget {MAX_TELEMETRY_OVERHEAD:.0%}): "
        f"traced {traced:.3f}s vs untraced {plain:.3f}s"
    )
