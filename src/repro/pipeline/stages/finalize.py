"""Terminal stages: automated verification and the §V-A metrics."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.metrics.runtime import runtime_ratio
from repro.metrics.similarity import sim_l, sim_t
from repro.pipeline.results import Status
from repro.pipeline.stages.base import PipelineContext, StageOutcome
from repro.pipeline.verification import verify_output
from repro.telemetry.profile import RuntimeProfile, profile_from_execution


def score_profiles(
    reference: Optional[RuntimeProfile],
    generated: Optional[RuntimeProfile],
) -> Optional[Dict[str, Any]]:
    """The ``profile`` block: both runtime profiles plus their step ratio.

    ``step_ratio`` is the paper's Ratio (reference / generated, > 1 =
    generated faster) over exact interpreter steps, immune to
    performance-model changes; the simulated-clock Ratio is the result's
    own ``ratio``.  Returns ``None`` when the generated run carried no
    interpreter profile.
    """
    if generated is None:
        return None
    block: Dict[str, Any] = {"generated": generated.to_dict()}
    if reference is not None:
        block["reference"] = reference.to_dict()
        block["step_ratio"] = (
            round(reference.steps / generated.steps, 6)
            if generated.steps > 0
            else None
        )
    return block


class VerifyOutput:
    """Automated stdout comparison against the reference baseline.

    The paper did this manually and lists automating it as future work; we
    implement it.  Present in the graph only when
    ``PipelineConfig.verify_output`` is set — ablating verification is a
    stage-graph edit, not a branch.
    """

    name = "verify"

    def run(self, ctx: PipelineContext) -> StageOutcome:
        if ctx.reference is None:
            return StageOutcome.proceed()
        execution = ctx.execution
        assert execution is not None, "VerifyOutput requires an execution"
        verdict = verify_output(ctx.reference.stdout, execution.stdout)
        ctx.result.verified = verdict.matches
        if not verdict.matches:
            ctx.result.status = Status.OUTPUT_MISMATCH
            ctx.result.failure_detail = verdict.detail
            return StageOutcome.halt()
        return StageOutcome.proceed()

    def describe(self) -> List[str]:
        return ["Automated output verification"]


class ComputeMetrics:
    """§V-A metrics against the reference target program; marks success."""

    name = "metrics"

    def run(self, ctx: PipelineContext) -> StageOutcome:
        result = ctx.result
        if ctx.reference is not None:
            execution = ctx.execution
            assert execution is not None and ctx.code is not None
            result.ratio = runtime_ratio(
                ctx.reference.runtime_seconds, execution.runtime_seconds
            )
            result.sim_t = sim_t(ctx.reference.source, ctx.code)
            result.sim_l = sim_l(ctx.reference.source, ctx.code)
            result.profile = score_profiles(
                profile_from_execution(ctx.reference.execution),
                profile_from_execution(execution),
            )
        result.status = Status.SUCCESS
        return StageOutcome.halt()

    def describe(self) -> List[str]:
        return ["Metrics (Runtime, Ratio, Sim-T, Sim-L, Self-corr)"]
