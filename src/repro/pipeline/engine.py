"""The stage-graph engine: assembles and drives the Figure 1 pipeline.

:class:`PipelineBuilder` turns a :class:`~repro.pipeline.config.PipelineConfig`
into a concrete stage sequence — ablation switches are graph edits here,
not ``if`` branches inside a monolithic method — and
:class:`StagePipeline` executes that sequence for one translation at a
time, publishing typed events around every stage on its event bus.

Control flow: stages normally fall through in order; a stage may *jump*
to a named stage (the execute loop's fall-back edge into the compile
loop) or *halt* with the result finalized.  Stage names are validated as
unique at construction; jump targets are dynamic (an outcome names its
target at run time) and are validated when the jump is taken.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.errors import PipelineError
from repro.llm.base import LLMClient
from repro.minilang.source import Dialect
from repro.pipeline.baseline import BaselinePreparer
from repro.pipeline.config import PipelineConfig
from repro.pipeline.events import (
    EventBus,
    PipelineFinished,
    PipelineStarted,
    StageFinished,
    StageStarted,
    Subscriber,
)
from repro.pipeline.results import LassiResult, Status
from repro.pipeline.stages import (
    HALT,
    JUMP,
    BaselinePrep,
    CompileCorrectLoop,
    ComputeMetrics,
    ContextPrep,
    ExecuteCorrectLoop,
    Generate,
    PipelineContext,
    SelfCorrector,
    Stage,
    VerifyOutput,
)
from repro.prompts.builder import PromptBuilder
from repro.toolchain import Executor, compiler_for


class StagePipeline:
    """Executes a stage graph for one program at a time.

    Construct via :class:`PipelineBuilder` (or
    :func:`build_pipeline`) for the standard LASSI graph; any sequence of
    objects implementing the :class:`~repro.pipeline.stages.base.Stage`
    protocol works.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        llm: LLMClient,
        source_dialect: Dialect,
        target_dialect: Dialect,
        config: PipelineConfig,
        events: Optional[EventBus] = None,
    ) -> None:
        self.stages: List[Stage] = list(stages)
        if not self.stages:
            raise PipelineError("a pipeline needs at least one stage")
        self.llm = llm
        self.source_dialect = source_dialect
        self.target_dialect = target_dialect
        self.config = config
        self.events = events if events is not None else EventBus()
        self._index = {stage.name: i for i, stage in enumerate(self.stages)}
        if len(self._index) != len(self.stages):
            names = [stage.name for stage in self.stages]
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise PipelineError(
                f"stage names must be unique; duplicated: {', '.join(dupes)}"
            )

    # ------------------------------------------------------------------
    def run(
        self,
        source_code: str,
        reference_target_code: Optional[str] = None,
        args: Sequence[str] = (),
        work_scale: float = 1.0,
        launch_scale: Optional[float] = None,
    ) -> LassiResult:
        """Run the full stage graph for one program.

        ``reference_target_code`` is the human-written program in the
        target language (the HeCBench counterpart); it provides the
        expected stdout, the runtime-Ratio denominator and the similarity
        reference.  Raises :class:`~repro.errors.BaselineError` when
        either original program does not work — §III-A halts the pipeline
        in that case.
        """
        result = LassiResult(
            status=Status.NO_CODE,
            source_dialect=self.source_dialect.value,
            target_dialect=self.target_dialect.value,
            model=self.llm.name,
        )
        ctx = PipelineContext(
            source_code=source_code,
            args=tuple(args),
            work_scale=work_scale,
            launch_scale=launch_scale,
            reference_code=reference_target_code,
            result=result,
            events=self.events,
        )
        self.events.publish(PipelineStarted(
            model=self.llm.name,
            source_dialect=self.source_dialect.value,
            target_dialect=self.target_dialect.value,
        ))
        run_start = time.perf_counter()
        failed = True
        try:
            i = 0
            while i < len(self.stages):
                stage = self.stages[i]
                self.events.publish(StageStarted(stage=stage.name))
                start = time.perf_counter()
                try:
                    outcome = stage.run(ctx)
                except BaseException:
                    self.events.publish(StageFinished(
                        stage=stage.name,
                        seconds=time.perf_counter() - start,
                        outcome="error",
                    ))
                    raise
                self.events.publish(StageFinished(
                    stage=stage.name,
                    seconds=time.perf_counter() - start,
                    outcome=outcome.describe(),
                ))
                if outcome.action == HALT:
                    break
                if outcome.action == JUMP:
                    target = outcome.jump_to
                    if target is None or target not in self._index:
                        raise PipelineError(
                            f"stage {stage.name!r} jumped to unknown stage "
                            f"{target!r}"
                        )
                    i = self._index[target]
                else:
                    i += 1
            failed = False
        finally:
            self.events.publish(PipelineFinished(
                status="error" if failed else str(result.status),
                seconds=time.perf_counter() - run_start,
            ))
        return result

    def stage_names(self) -> List[str]:
        """The Figure 1 stage graph, in order — derived from the stages
        themselves (used by the ASCII architecture renderer)."""
        return [label for stage in self.stages for label in stage.describe()]


class PipelineBuilder:
    """Assembles the standard LASSI stage graph for one configuration.

    The config's ablation switches become stage-graph edits here:
    ``verify_output=False`` drops the verification stage entirely,
    ``include_knowledge`` selects the prompt-builder sub-steps, and
    ``self_correction=False`` zeroes the loop budgets (the loop stages
    stay so the single-attempt path is the same code).
    """

    def __init__(
        self,
        llm: LLMClient,
        source_dialect: Dialect,
        target_dialect: Dialect,
        config: Optional[PipelineConfig] = None,
        executor: Optional[Executor] = None,
        baseline_preparer: Optional[BaselinePreparer] = None,
    ) -> None:
        self.llm = llm
        self.source_dialect = source_dialect
        self.target_dialect = target_dialect
        self.config = config or PipelineConfig()
        self.executor = executor or Executor()
        self.baselines = baseline_preparer or BaselinePreparer(self.executor)
        self.prompt_builder = PromptBuilder(
            source_dialect,
            target_dialect,
            include_knowledge=self.config.include_knowledge,
        )

    def default_stages(self) -> List[Stage]:
        """The standard graph for ``self.config``, in execution order."""
        corrector = SelfCorrector(
            self.llm, self.prompt_builder, self.target_dialect
        )
        stages: List[Stage] = [
            BaselinePrep(self.baselines, self.source_dialect, self.target_dialect),
            ContextPrep(self.llm, self.prompt_builder, self.config),
            Generate(self.llm, self.target_dialect),
            CompileCorrectLoop(
                compiler_for(self.target_dialect), corrector, self.config
            ),
            ExecuteCorrectLoop(
                self.executor, corrector, self.config, self.target_dialect
            ),
        ]
        if self.config.verify_output:
            stages.append(VerifyOutput())
        stages.append(ComputeMetrics())
        return stages

    def build(self, stages: Optional[Sequence[Stage]] = None) -> StagePipeline:
        """Build the pipeline (``stages`` overrides the default graph)."""
        return StagePipeline(
            stages=list(stages) if stages is not None else self.default_stages(),
            llm=self.llm,
            source_dialect=self.source_dialect,
            target_dialect=self.target_dialect,
            config=self.config,
        )


def build_pipeline(
    llm: LLMClient,
    source_dialect: Dialect,
    target_dialect: Dialect,
    config: Optional[PipelineConfig] = None,
    executor: Optional[Executor] = None,
    baseline_preparer: Optional[BaselinePreparer] = None,
    subscribers: Sequence[Subscriber] = (),
) -> StagePipeline:
    """One-call assembly of the standard LASSI stage graph.

    ``subscribers`` attach to the pipeline's event bus before it runs
    anything, so they observe every stage of every translation.
    """
    pipeline = PipelineBuilder(
        llm,
        source_dialect,
        target_dialect,
        config=config,
        executor=executor,
        baseline_preparer=baseline_preparer,
    ).build()
    for callback in subscribers:
        pipeline.events.subscribe(callback)
    return pipeline
