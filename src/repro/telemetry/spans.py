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

    Each span is kept in its :meth:`Span.to_dict` form from the start: a
    leaf is complete when its event arrives, and a stage or the root
    gains ``wall``, ``cpu`` and ``attrs`` when it finishes, in that key
    order, so :meth:`drain` has nothing left to convert.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._spans: List[Dict[str, Any]] = []
        self._t0: Optional[float] = None
        self._root: Optional[Dict[str, Any]] = None
        self._root_attrs: Dict[str, Any] = {}
        self._stage: Optional[Dict[str, Any]] = None
        self._stage_cpu_start = 0.0
        self._root_cpu_start = 0.0

    # ------------------------------------------------------------------
    def _open(
        self,
        name: str,
        kind: str,
        parent: Optional[int],
        seconds: float = 0.0,
    ) -> Dict[str, Any]:
        """A span that opened ``seconds`` before now and lasted as long."""
        now = time.perf_counter()
        if self._t0 is None:
            self._t0 = now
        span: Dict[str, Any] = {
            "id": len(self._spans),
            "name": name,
            "kind": kind,
            "start": round(max(0.0, now - self._t0 - seconds), 6),
            "wall": round(seconds, 6),
        }
        if parent is not None:
            span["parent"] = parent
        self._spans.append(span)
        return span

    # ------------------------------------------------------------------
    def __call__(self, event: Any) -> None:
        kind = type(event).__name__
        if kind == "PipelineStarted":
            self._reset()
            self._root = self._open("pipeline", PIPELINE, None)
            self._root_attrs = {
                "model": event.model,
                "source_dialect": event.source_dialect,
                "target_dialect": event.target_dialect,
            }
            self._root_cpu_start = time.process_time()
        elif kind == "StageStarted":
            parent = self._root["id"] if self._root is not None else None
            self._stage = self._open(event.stage, STAGE, parent)
            self._stage_cpu_start = time.process_time()
        elif kind == "StageFinished":
            stage = self._stage
            if stage is not None and stage["name"] == event.stage:
                stage["wall"] = round(event.seconds, 6)
                stage["cpu"] = round(time.process_time() - self._stage_cpu_start, 6)
                stage["attrs"] = {"outcome": event.outcome}
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
            attrs: Dict[str, Any] = {"ok": event.ok}
            if event.profile:
                attrs["profile"] = dict(event.profile)
            self._leaf("execute", EXEC, event.seconds, attrs)
        elif kind == "PipelineFinished":
            if self._root is not None:
                self._root["wall"] = round(event.seconds, 6)
                self._root["cpu"] = round(time.process_time() - self._root_cpu_start, 6)
                self._root_attrs["status"] = event.status
                self._root["attrs"] = self._root_attrs

    def _leaf(
        self, name: str, kind: str, seconds: float, attrs: Dict[str, Any]
    ) -> None:
        parent = self._stage if self._stage is not None else self._root
        # The event reports a finished region: the span opened `seconds`
        # before now, not at the publish instant.
        span = self._open(name, kind, parent["id"] if parent else None, seconds)
        span["attrs"] = attrs

    # ------------------------------------------------------------------
    def drain(self) -> List[Dict[str, Any]]:
        """Finished span dicts for the run just traced; resets the tracer."""
        spans, root = self._spans, self._root
        if root is not None and "attrs" not in root:
            root["attrs"] = self._root_attrs  # the run has not finished
        self._reset()
        return spans
