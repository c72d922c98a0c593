"""The §III-D self-correcting loop stages.

Loop structure follows the paper exactly:

* **compile loop** (:class:`CompileCorrectLoop`) — while the compiler
  returns errors, re-prompt with the generated code + compiler stderr
  (Table III "Compile error") and try again;
* **execute loop** (:class:`ExecuteCorrectLoop`) — once compiling, run it;
  on a runtime error re-prompt with the code + runtime stderr (Table III
  "Execution error") and **jump back** to the compile loop — §III-D2: "If
  a compile error occurs again, then the pipeline remains in the
  compilation self-correction loop".  The repaired code re-records an
  attempt and re-compiles before re-executing, exactly as the monolithic
  ``while`` loop did;
* iterate until clean or ``max_corrections`` re-prompts have been spent.

Both stages share one :class:`SelfCorrector` (the Table III re-prompt +
code re-extraction) and one corrections budget carried on the
:class:`~repro.pipeline.stages.base.PipelineContext`.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.llm.base import LLMClient
from repro.minilang.source import Dialect
from repro.pipeline.config import PipelineConfig
from repro.pipeline.events import (
    AttemptRecorded,
    CompileFinished,
    CorrectionIssued,
    ExecutionFinished,
)
from repro.pipeline.results import Attempt, Status
from repro.pipeline.stages.base import PipelineContext, StageOutcome
from repro.pipeline.stages.generate import extract_target_code, timed_chat
from repro.prompts.builder import PromptBuilder
from repro.telemetry.profile import profile_from_execution
from repro.toolchain.compiler import CompilerDriver, last_compile_cached
from repro.toolchain.executor import Executor, ExecutionResult


def _execution_profile_payload(execution: ExecutionResult) -> Optional[dict]:
    """The ``ExecutionFinished.profile`` payload (None when no
    interpreter profile is attached).  Module-level so the perf-profile
    benchmark can stub it out to measure collection overhead."""
    runtime_profile = profile_from_execution(execution)
    return runtime_profile.to_dict() if runtime_profile is not None else None


class SelfCorrector:
    """One Table III correction round; returns the re-extracted code."""

    def __init__(
        self,
        llm: LLMClient,
        prompt_builder: PromptBuilder,
        target_dialect: Dialect,
    ) -> None:
        self.llm = llm
        self.prompt_builder = prompt_builder
        self.target_dialect = target_dialect

    def correct(
        self,
        ctx: PipelineContext,
        stage: str,
        kind: str,
        code: str,
        command: str,
        stderr: str,
    ) -> Optional[str]:
        """Re-prompt with ``stderr`` (a ``kind``-correction call published
        under ``stage``) and return the re-extracted code."""
        messages = self.prompt_builder.correction_messages(
            self.llm, kind, code, command, stderr
        )
        response = timed_chat(
            ctx, self.llm, stage, f"{kind}-correction", messages
        )
        return extract_target_code(response.text, self.target_dialect)


class CompileCorrectLoop:
    """Record attempts and compile, re-prompting until clean or exhausted.

    Entered once after generation and re-entered (via the execute loop's
    jump edge) after every runtime correction.  Each entry records one
    attempt per candidate; a candidate with no code block at all fails the
    run as ``no-code`` — with the stderr that triggered the failed
    correction preserved on the recorded attempt.
    """

    name = "compile-correct"

    def __init__(
        self,
        compiler: CompilerDriver,
        corrector: SelfCorrector,
        config: PipelineConfig,
    ) -> None:
        self.compiler = compiler
        self.corrector = corrector
        self.config = config

    def run(self, ctx: PipelineContext) -> StageOutcome:
        result = ctx.result
        while True:
            code = ctx.code
            attempt = Attempt(
                index=ctx.attempt_index, kind=ctx.attempt_kind, code=code
            )
            if code is None:
                # The correction (or generation) produced no code block:
                # keep the stderr that drove the re-prompt on the record
                # instead of losing it with the missing code.
                attempt.stderr = ctx.pending_stderr
            result.attempts.append(attempt)
            ctx.events.publish(AttemptRecorded(
                stage=self.name, index=ctx.attempt_index, kind=ctx.attempt_kind
            ))
            ctx.attempt_index += 1

            if code is None:
                result.status = Status.NO_CODE
                result.failure_detail = "response contained no code block"
                return StageOutcome.halt()

            compile_start = time.perf_counter()
            compile_result = self.compiler.compile(code)
            ctx.events.publish(CompileFinished(
                stage=self.name,
                ok=compile_result.ok,
                seconds=time.perf_counter() - compile_start,
                cached=last_compile_cached(),
            ))
            attempt.compiled = compile_result.ok
            if compile_result.ok:
                ctx.compile_result = compile_result
                ctx.current_attempt = attempt
                ctx.pending_stderr = ""
                return StageOutcome.proceed()

            attempt.stderr = compile_result.stderr
            if ctx.corrections >= self.config.effective_max_corrections:
                result.status = Status.COMPILE_FAILED
                result.failure_detail = compile_result.stderr
                result.generated_code = code
                result.self_corrections = ctx.corrections
                return StageOutcome.halt()

            ctx.code = self.corrector.correct(
                ctx, self.name, "compile", code, compile_result.command,
                compile_result.stderr,
            )
            ctx.corrections += 1
            ctx.attempt_kind = "compile-correction"
            ctx.pending_stderr = compile_result.stderr
            ctx.events.publish(CorrectionIssued(
                stage=self.name, kind="compile",
                corrections=ctx.corrections, stderr=compile_result.stderr,
            ))

    def describe(self) -> List[str]:
        if self.config.self_correction:
            return ["Compile self-correction loop"]
        return ["Compile (single attempt)"]


class ExecuteCorrectLoop:
    """Run the compiled program; on a runtime fault, correct and fall back.

    On success, finalizes the run's generated code, correction count,
    stdout and runtime before verification — matching the monolithic
    pipeline's field ordering exactly.
    """

    name = "execute-correct"

    def __init__(
        self,
        executor: Executor,
        corrector: SelfCorrector,
        config: PipelineConfig,
        target_dialect: Dialect,
        compile_stage: str = CompileCorrectLoop.name,
    ) -> None:
        self.executor = executor
        self.corrector = corrector
        self.config = config
        self.target_dialect = target_dialect
        self.compile_stage = compile_stage

    def run(self, ctx: PipelineContext) -> StageOutcome:
        result = ctx.result
        compile_result = ctx.compile_result
        attempt = ctx.current_attempt
        code = ctx.code
        assert compile_result is not None and attempt is not None, (
            "ExecuteCorrectLoop requires a compiled attempt"
        )
        assert code is not None

        exec_start = time.perf_counter()
        execution = self.executor.run(
            compile_result.program, self.target_dialect, ctx.args,
            work_scale=ctx.work_scale, launch_scale=ctx.launch_scale,
        )
        ctx.events.publish(ExecutionFinished(
            stage=self.name,
            ok=execution.ok,
            seconds=time.perf_counter() - exec_start,
            profile=_execution_profile_payload(execution),
        ))
        attempt.executed = execution.ok
        if execution.ok:
            ctx.execution = execution
            result.generated_code = code
            result.self_corrections = ctx.corrections
            result.stdout = execution.stdout
            result.runtime_seconds = execution.runtime_seconds
            return StageOutcome.proceed()

        attempt.stderr = execution.stderr
        if ctx.corrections >= self.config.effective_max_corrections:
            result.status = Status.EXECUTE_FAILED
            result.failure_detail = execution.stderr
            result.generated_code = code
            result.self_corrections = ctx.corrections
            return StageOutcome.halt()

        ctx.code = self.corrector.correct(
            ctx, self.name, "execute", code, compile_result.command,
            execution.stderr,
        )
        ctx.corrections += 1
        ctx.attempt_kind = "execute-correction"
        ctx.pending_stderr = execution.stderr
        ctx.events.publish(CorrectionIssued(
            stage=self.name, kind="execute",
            corrections=ctx.corrections, stderr=execution.stderr,
        ))
        return StageOutcome.jump(self.compile_stage)

    def describe(self) -> List[str]:
        if self.config.self_correction:
            return ["Execute self-correction loop"]
        return ["Execute (single attempt)"]
