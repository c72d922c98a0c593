"""Spans and the event-bus tracer that produces them.

A :class:`Span` is one timed region of a pipeline run — the run itself,
a stage entry, an LLM round-trip, a compiler invocation, or a simulated
program execution.  Spans form a tree via ``parent`` ids: the pipeline
span (id 0) parents the stage spans, and each leaf span (llm / compile /
exec) is parented to the stage entry it happened inside.

:class:`SpanTracer` is a plain event-bus subscriber::

    tracer = SpanTracer()
    pipeline = build_pipeline(llm, src, tgt, subscribers=[tracer])
    pipeline.run(code)
    spans = tracer.drain()          # list of JSON-able span dicts

The tracer never touches the metrics registry — counters for process-
backend runs are derived from shipped span payloads on the parent side
(:func:`repro.telemetry.metrics.record_run`), so each run counts once.

No imports from the rest of the package: events are matched by class
*name*, which keeps the dependency arrow pointing from the pipeline to
telemetry only at the subscription site.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Span", "SpanTracer", "span_sort_key"]

#: Span kinds, from coarse to fine.
PIPELINE, STAGE, LLM, COMPILE, EXEC = "pipeline", "stage", "llm", "compile", "exec"


@dataclass
class Span:
    """One timed region.  ``start`` is seconds since the run's root span
    opened; ``wall`` is wall-clock duration; ``cpu`` is process-CPU
    duration where measurable (leaf spans shipped from events carry only
    wall time)."""

    id: int
    name: str
    kind: str
    start: float
    wall: float = 0.0
    parent: Optional[int] = None
    cpu: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "kind": self.kind,
            "start": round(self.start, 6),
            "wall": round(self.wall, 6),
        }
        if self.parent is not None:
            data["parent"] = self.parent
        if self.cpu is not None:
            data["cpu"] = round(self.cpu, 6)
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            id=int(data["id"]),
            name=str(data["name"]),
            kind=str(data["kind"]),
            start=float(data["start"]),
            wall=float(data.get("wall", 0.0)),
            parent=data.get("parent"),
            cpu=data.get("cpu"),
            attrs=dict(data.get("attrs", {})),
        )


def span_sort_key(span: Dict[str, Any]) -> Any:
    """Stable ordering for serialized spans (start offset, then id)."""
    return (span.get("start", 0.0), span.get("id", 0))


class SpanTracer:
    """Builds the span tree for one pipeline run from bus events.

    One tracer serves one run at a time (the grid runners build a fresh
    pipeline — and tracer — per scenario, mirroring the bus's own
    single-run design).  Call :meth:`drain` after ``pipeline.run()`` to
    collect the finished span dicts and reset for reuse.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._spans: List[Span] = []
        self._next_id = 0
        self._t0: Optional[float] = None
        self._root: Optional[Span] = None
        self._stage: Optional[Span] = None
        self._stage_cpu_start = 0.0
        self._root_cpu_start = 0.0

    # ------------------------------------------------------------------
    def _now(self) -> float:
        now = time.perf_counter()
        if self._t0 is None:
            self._t0 = now
        return now - self._t0

    def _open(
        self,
        name: str,
        kind: str,
        parent: Optional[int],
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        span = Span(
            id=self._next_id,
            name=name,
            kind=kind,
            start=self._now(),
            parent=parent,
            attrs=dict(attrs or {}),
        )
        self._next_id += 1
        self._spans.append(span)
        return span

    # ------------------------------------------------------------------
    def __call__(self, event: Any) -> None:
        kind = type(event).__name__
        if kind == "PipelineStarted":
            self._reset()
            self._root = self._open(
                "pipeline",
                PIPELINE,
                None,
                {
                    "model": event.model,
                    "source_dialect": event.source_dialect,
                    "target_dialect": event.target_dialect,
                },
            )
            self._root_cpu_start = time.process_time()
        elif kind == "StageStarted":
            parent = self._root.id if self._root is not None else None
            self._stage = self._open(event.stage, STAGE, parent)
            self._stage_cpu_start = time.process_time()
        elif kind == "StageFinished":
            stage = self._stage
            if stage is not None and stage.name == event.stage:
                stage.wall = event.seconds
                stage.cpu = time.process_time() - self._stage_cpu_start
                stage.attrs["outcome"] = event.outcome
            self._stage = None
        elif kind == "LlmCallFinished":
            self._leaf(
                event.purpose,
                LLM,
                event.seconds,
                {
                    "purpose": event.purpose,
                    "model": event.model,
                    "prompt_tokens": event.prompt_tokens,
                    "completion_tokens": event.completion_tokens,
                },
            )
        elif kind == "CompileFinished":
            self._leaf(
                "compile",
                COMPILE,
                event.seconds,
                {"ok": event.ok, "cached": event.cached},
            )
        elif kind == "ExecutionFinished":
            attrs = {
                "ok": event.ok,
                "steps": event.steps,
                "launches": event.launches,
            }
            profile = getattr(event, "profile", None)
            if profile:
                attrs["profile"] = dict(profile)
            self._leaf("execute", EXEC, event.seconds, attrs)
        elif kind == "PipelineFinished":
            if self._root is not None:
                self._root.wall = event.seconds
                self._root.cpu = time.process_time() - self._root_cpu_start
                self._root.attrs["status"] = event.status

    def _leaf(
        self, name: str, kind: str, seconds: float, attrs: Dict[str, Any]
    ) -> None:
        parent = self._stage or self._root
        span = self._open(name, kind, parent.id if parent else None, attrs)
        # The event reports a finished region: the span opened `seconds`
        # before now, not at the publish instant.
        span.start = max(0.0, span.start - seconds)
        span.wall = seconds

    # ------------------------------------------------------------------
    def drain(self) -> List[Dict[str, Any]]:
        """Finished span dicts for the run just traced; resets the tracer."""
        spans = [s.to_dict() for s in self._spans]
        self._reset()
        return spans
