"""The LASSI pipeline (§III of the paper), as an explicit stage graph.

Stages, in the paper's order (each a node in
:mod:`repro.pipeline.stages`, assembled by
:class:`~repro.pipeline.engine.PipelineBuilder`):

1. **Source code preparation** (``BaselinePrep`` over
   :mod:`repro.pipeline.baseline`) — compile and execute the original code
   in both languages; halt on failure.
2. **Context preparation** (``ContextPrep`` over :mod:`repro.prompts`) —
   prompt dictionary + language knowledge + self-prompting summaries.
3. **Code generation** (``Generate``) — query the LLM, filter out the
   fenced code block.
4. **Self-correcting loops** (``CompileCorrectLoop`` /
   ``ExecuteCorrectLoop``) — compile; on error re-prompt with stderr; then
   execute; on error re-prompt and jump back to the compile loop; repeat
   until clean or the iteration cap is hit.
5. **Verification** (``VerifyOutput`` over
   :mod:`repro.pipeline.verification`) — automated stdout comparison
   against the reference (the paper did this manually and lists automating
   it as future work; we implement it).
6. **Metrics** (``ComputeMetrics``) — the §V-A columns.

The engine publishes typed :mod:`~repro.pipeline.events` around every
stage; assemble the standard graph with :func:`build_pipeline` (or the
:mod:`repro.api` facade).
"""

from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import PipelineBuilder, StagePipeline, build_pipeline
from repro.pipeline.events import (
    AttemptRecorded,
    CompileFinished,
    CorrectionIssued,
    EventBus,
    ExecutionFinished,
    LlmCallFinished,
    PipelineEvent,
    PipelineFinished,
    PipelineStarted,
    StageFinished,
    StageStarted,
)
from repro.pipeline.results import Attempt, LassiResult, Status
from repro.pipeline.baseline import Baseline, BaselinePreparer
from repro.pipeline.stages import PipelineContext, Stage, StageOutcome

__all__ = [
    "Attempt",
    "AttemptRecorded",
    "Baseline",
    "BaselinePreparer",
    "CompileFinished",
    "CorrectionIssued",
    "EventBus",
    "ExecutionFinished",
    "LassiResult",
    "LlmCallFinished",
    "PipelineBuilder",
    "PipelineConfig",
    "PipelineContext",
    "PipelineEvent",
    "PipelineFinished",
    "PipelineStarted",
    "Stage",
    "StageFinished",
    "StageOutcome",
    "StagePipeline",
    "StageStarted",
    "Status",
    "build_pipeline",
]
