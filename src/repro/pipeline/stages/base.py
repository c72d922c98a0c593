"""Stage protocol, outcomes, and the mutable per-run pipeline context.

A stage is a named unit of the Figure 1 graph.  It reads and mutates one
:class:`PipelineContext` (the per-translation state) and returns a
:class:`StageOutcome` telling the engine what to do next: fall through to
the next stage, jump to a named stage (the §III-D2 "execute failure falls
back into the compile loop" edge), or halt with the result finalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Tuple

from repro.pipeline.baseline import Baseline
from repro.pipeline.events import EventBus
from repro.pipeline.results import Attempt, LassiResult
from repro.prompts.builder import PromptBundle
from repro.toolchain.compiler import CompileResult
from repro.toolchain.executor import ExecutionResult

PROCEED = "proceed"
JUMP = "jump"
HALT = "halt"


@dataclass(frozen=True)
class StageOutcome:
    """What the engine should do after a stage returns."""

    action: str  # PROCEED | JUMP | HALT
    jump_to: Optional[str] = None

    @classmethod
    def proceed(cls) -> "StageOutcome":
        return cls(action=PROCEED)

    @classmethod
    def halt(cls) -> "StageOutcome":
        """The stage finalized ``ctx.result``; the run is over."""
        return cls(action=HALT)

    @classmethod
    def jump(cls, target: str) -> "StageOutcome":
        """Transfer control to the stage named ``target``."""
        return cls(action=JUMP, jump_to=target)

    def describe(self) -> str:
        if self.action == JUMP:
            return f"jump:{self.jump_to}"
        return self.action


@dataclass
class PipelineContext:
    """Mutable state one translation threads through the stage graph.

    Stages communicate exclusively through this object; the engine creates
    one per :meth:`~repro.pipeline.engine.StagePipeline.run` call.
    """

    source_code: str
    args: Tuple[str, ...]
    work_scale: float
    launch_scale: Optional[float]
    reference_code: Optional[str]
    result: LassiResult
    events: EventBus

    # Filled in as stages run:
    reference: Optional[Baseline] = None
    bundle: Optional[PromptBundle] = None
    #: Candidate code under test (None when a response had no code block).
    code: Optional[str] = None
    #: Kind of the next attempt to record ("initial" or a correction kind).
    attempt_kind: str = "initial"
    attempt_index: int = 0
    corrections: int = 0
    #: The stderr that triggered the last correction; recorded on the next
    #: attempt when that correction produced no code block at all.
    pending_stderr: str = ""
    compile_result: Optional[CompileResult] = None
    execution: Optional[ExecutionResult] = None
    current_attempt: Optional[Attempt] = None


class Stage(Protocol):
    """One node of the pipeline graph.

    ``name`` is the stable machine name used for jump targets, event
    payloads and ``stage`` span names; ``describe``
    yields the human-readable Figure 1 labels this stage contributes.
    """

    name: str

    def run(self, ctx: PipelineContext) -> StageOutcome:
        """Execute against ``ctx`` and say what happens next."""
        ...  # pragma: no cover - protocol

    def describe(self) -> List[str]:
        """Figure 1 display strings, in graph order."""
        ...  # pragma: no cover - protocol


__all__ = [
    "HALT",
    "JUMP",
    "PROCEED",
    "PipelineContext",
    "Stage",
    "StageOutcome",
]
