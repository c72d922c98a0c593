#!/usr/bin/env python3
"""Watch the self-correction loops work — live, via the pipeline event bus.

A scenario planned to need three correction rounds (compile, compile,
execute) is run with a subscriber attached to the pipeline's
:class:`~repro.pipeline.events.EventBus`; every stage entry/exit,
recorded attempt and issued correction prints as it happens, followed by
the recorded attempt trace and the per-stage wall-time breakdown the same
subscriber summed from ``StageFinished`` events.
"""

from typing import Callable, Dict

from repro.api import build_pipeline
from repro.hecbench import get_app
from repro.llm.profiles import CellPlan
from repro.llm.simulated import SimulatedLLM
from repro.minilang.source import Dialect
from repro.pipeline.events import (
    AttemptRecorded,
    CorrectionIssued,
    PipelineEvent,
    StageFinished,
)

PLAN = CellPlan(
    self_corrections=3,
    fault_ids=("missing-semicolon", "kernel-called-directly", "oob-guard-cuda"),
)

def narrator(stage_seconds: Dict[str, float]) -> Callable[[PipelineEvent], None]:
    """A subscriber that prints each event and sums wall time per stage
    (over re-entries) into ``stage_seconds``."""

    def narrate(event: PipelineEvent) -> None:
        if isinstance(event, AttemptRecorded):
            print(f"  [attempt {event.index}] {event.kind} (in {event.stage})")
        elif isinstance(event, CorrectionIssued):
            first = event.stderr.splitlines()[0] if event.stderr else ""
            print(f"  [correction #{event.corrections}] {event.kind}: {first}")
        elif isinstance(event, StageFinished):
            stage_seconds[event.stage] = (
                stage_seconds.get(event.stage, 0.0) + event.seconds
            )
            print(f"  [stage] {event.stage:16s} {event.outcome:20s} "
                  f"{event.seconds * 1e3:8.2f} ms")

    return narrate


def main() -> int:
    app = get_app("pathfinder")
    llm = SimulatedLLM("wizardcoder", Dialect.OMP, Dialect.CUDA, plan=PLAN)
    stage_seconds: Dict[str, float] = {}
    pipeline = build_pipeline(llm, Dialect.OMP, Dialect.CUDA,
                              subscribers=[narrator(stage_seconds)])

    print(f"=== self-correction trace: {app.name}, {llm.name} ===\n")
    result = pipeline.run(
        app.omp_source,
        reference_target_code=app.cuda_source,
        args=app.args,
        work_scale=app.work_scale,
        launch_scale=app.launch_scale,
    )

    print("\nattempt record:")
    for attempt in result.attempts:
        print(f"attempt {attempt.index} ({attempt.kind}): "
              f"compiled={attempt.compiled} executed={attempt.executed}")
        if attempt.stderr:
            first = attempt.stderr.splitlines()[0]
            print(f"   error fed back to the LLM: {first}")

    print("\nwhere the time went:")
    for stage, seconds in stage_seconds.items():
        print(f"  {stage:16s} {seconds * 1e3:8.2f} ms")

    print(f"\nfinal status: {result.status} after "
          f"{result.self_corrections} self-corrections")
    assert result.self_corrections == 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
