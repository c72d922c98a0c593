"""Typed pipeline events and the subscriber bus.

Every :class:`~repro.pipeline.engine.StagePipeline` owns an
:class:`EventBus`.  The engine publishes :class:`StageStarted` /
:class:`StageFinished` (with wall-clock seconds) around every stage
execution, and the self-correction stages publish
:class:`CorrectionIssued` / :class:`AttemptRecorded` from inside their
loops.  Subscribers are plain callables — span tracers and progress
displays attach the same way::

    pipeline = build_pipeline(llm, src, tgt)
    pipeline.events.subscribe(lambda e: print(e))
    pipeline.run(source_code)

Subscriber exceptions are contained: a broken subscriber must not turn
an observability bug into a pipeline outcome.  :meth:`EventBus.publish`
catches the exception, logs it at warning level with the subscriber's
name, increments the ``telemetry_subscriber_errors`` counter, and keeps
delivering the event to the remaining subscribers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.telemetry.log import get_logger
from repro.telemetry.metrics import counter as _metrics_counter

_logger = get_logger("pipeline.events")


class PipelineEvent:
    """Base class for everything published on the :class:`EventBus`."""

    __slots__ = ()


@dataclass(frozen=True)
class PipelineStarted(PipelineEvent):
    """A pipeline run is beginning (published before the first stage)."""

    model: str
    source_dialect: str
    target_dialect: str


@dataclass(frozen=True)
class PipelineFinished(PipelineEvent):
    """The run ended — normally or by an escaping exception.

    ``status`` is the result's terminal status string, or ``"error"``
    when a stage raised (the exception propagates after this event);
    ``seconds`` is the whole run's wall-clock time.
    """

    status: str
    seconds: float


@dataclass(frozen=True)
class StageStarted(PipelineEvent):
    """A stage is about to run (re-entered stages fire this every entry)."""

    stage: str


@dataclass(frozen=True)
class StageFinished(PipelineEvent):
    """A stage returned (or raised).

    ``seconds`` is the wall-clock time of this entry; ``outcome`` is
    ``"proceed"``, ``"halt"``, ``"jump:<target>"`` or ``"error"`` (the
    stage raised — the exception propagates after this event).
    """

    stage: str
    seconds: float
    outcome: str


@dataclass(frozen=True)
class CorrectionIssued(PipelineEvent):
    """A Table III re-prompt was sent to the LLM.

    ``kind`` is ``"compile"`` or ``"execute"``; ``corrections`` counts the
    re-prompts issued so far in this run, including this one; ``stderr``
    is the toolchain output that triggered the re-prompt.
    """

    stage: str
    kind: str
    corrections: int
    stderr: str


@dataclass(frozen=True)
class AttemptRecorded(PipelineEvent):
    """A generation attempt entered the self-correction loop."""

    stage: str
    index: int
    kind: str


@dataclass(frozen=True)
class LlmCallFinished(PipelineEvent):
    """One LLM round-trip completed.

    ``purpose`` is ``"generate"``, ``"compile-correction"`` or
    ``"execute-correction"``; ``seconds`` times the chat call alone (not
    prompt building); token counts come from the client's
    :class:`~repro.llm.base.GenerationResult`.
    """

    stage: str
    purpose: str
    model: str
    seconds: float
    prompt_tokens: int
    completion_tokens: int


@dataclass(frozen=True)
class CompileFinished(PipelineEvent):
    """One compiler invocation returned.

    ``cached`` reports whether the process-wide compile memo served the
    result (derived from its hit counter around the call — exact in the
    single-pipeline-per-thread model the bus assumes).
    """

    stage: str
    ok: bool
    seconds: float
    cached: bool


@dataclass(frozen=True)
class ExecutionFinished(PipelineEvent):
    """One simulated program execution returned.

    ``steps`` / ``launches`` are the interpreter step count and kernel
    launch count the run consumed — the step-budget accounting surfaced
    as telemetry.  ``profile``, when present, is the execution's full
    :class:`~repro.telemetry.profile.RuntimeProfile` as a plain dict
    (deterministic counts: dispatch-path launches, barrier waits,
    atomics, memory traffic, simulated seconds).
    """

    stage: str
    ok: bool
    seconds: float
    steps: int
    launches: int
    profile: Optional[Dict[str, Any]] = None


Subscriber = Callable[[PipelineEvent], None]


class EventBus:
    """Synchronous fan-out of :class:`PipelineEvent`\\ s to subscribers.

    Not thread-safe by design: one pipeline instance serves one
    translation at a time (the grid runners build a fresh pipeline per
    scenario), so events for a run are published from a single thread.
    """

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []

    def subscribe(self, callback: Subscriber) -> Callable[[], None]:
        """Attach ``callback``; returns a zero-argument unsubscribe."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass  # already unsubscribed

        return unsubscribe

    def unsubscribe(self, callback: Subscriber) -> bool:
        """Detach ``callback`` by identity; ``False`` if not subscribed.

        Complements the closure :meth:`subscribe` returns for callers
        holding the original callable rather than the closure (tracer
        attach/detach across pipeline reuse).
        """
        try:
            self._subscribers.remove(callback)
        except ValueError:
            return False
        return True

    @contextmanager
    def subscribed(self, callback: Subscriber) -> Iterator[Subscriber]:
        """Attach ``callback`` for the duration of a ``with`` block.

        Guarantees temporary subscribers — progress displays, test
        tracers — cannot leak across pipeline reuse even when the body
        raises.
        """
        detach = self.subscribe(callback)
        try:
            yield callback
        finally:
            detach()

    def publish(self, event: PipelineEvent) -> None:
        """Deliver ``event`` to every subscriber, containing their faults.

        A raising subscriber is an observability bug, not a pipeline
        outcome: the exception is logged at warning level with the
        subscriber's name, counted on ``telemetry_subscriber_errors``,
        and delivery continues to the remaining subscribers.
        """
        for callback in list(self._subscribers):
            try:
                callback(event)
            except Exception as exc:
                name = getattr(
                    callback, "__qualname__", type(callback).__name__
                )
                _logger.warning(
                    "event subscriber %s raised %s: %s on %s",
                    name,
                    type(exc).__name__,
                    exc,
                    type(event).__name__,
                )
                _metrics_counter("telemetry_subscriber_errors").inc(
                    subscriber=str(name)
                )

    def __len__(self) -> int:
        return len(self._subscribers)
