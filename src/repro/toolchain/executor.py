"""Program execution on the simulated platform.

Wraps :class:`repro.interp.ProgramRunner` and the performance model into the
shape LASSI needs: run a compiled program with given runtime args, capture
stdout/stderr, and report the simulated wall-clock.  Guest faults never
raise — they come back as a populated ``stderr`` + non-zero exit code, the
signal the execution self-correction loop (§III-D2) feeds to the LLM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.gpu import PerformanceModel
from repro.gpu.perfmodel import TimeBreakdown
from repro.gpu.stats import ExecutionProfile
from repro.interp import Limits, ProgramRunner
from repro.minilang.ast import Program
from repro.minilang.source import Dialect
from repro.telemetry.log import get_logger

logger = get_logger("toolchain")


@dataclass
class ExecutionResult:
    """Outcome of one simulated program execution."""

    ok: bool
    stdout: str
    stderr: str
    exit_code: int
    #: Simulated wall-clock seconds from the performance model.
    runtime_seconds: float
    profile: Optional[ExecutionProfile] = None
    breakdown: Optional[TimeBreakdown] = None
    args: List[str] = field(default_factory=list)
    #: Interpreter steps consumed out of the step budget (telemetry).
    steps_used: int = 0


class Executor:
    """Runs compiled programs on the simulated A100 platform."""

    def __init__(
        self,
        perf_model: Optional[PerformanceModel] = None,
        limits: Optional[Limits] = None,
    ) -> None:
        self.perf_model = perf_model or PerformanceModel()
        self.limits = limits

    def run(
        self,
        program: Program,
        dialect: Dialect,
        args: Optional[Sequence[str]] = None,
        work_scale: float = 1.0,
        launch_scale: Optional[float] = None,
    ) -> ExecutionResult:
        """Execute ``program`` with ``args``; never raises for guest faults."""
        runner = ProgramRunner(program, dialect, limits=self.limits)
        try:
            outcome = runner.run(list(args or []))
        finally:
            runner.release()

        stderr = ""
        ok = outcome.error is None and outcome.exit_code == 0
        if outcome.error is not None:
            stderr = outcome.error
            if outcome.error_detail:
                stderr += f"\n[detail] {outcome.error_detail}"
            # Why an execution was killed is invisible in the result's
            # failure string until someone reads the session; surface the
            # interpreter's step-budget exhaustion / guest fault on the
            # debug log stream too (`--log-level debug`).
            logger.debug(
                "execution killed after %d steps: %s%s",
                outcome.steps_used,
                outcome.error,
                f" ({outcome.error_detail})" if outcome.error_detail else "",
            )
        elif outcome.exit_code != 0:
            stderr = f"process exited with non-zero status {outcome.exit_code}"

        breakdown = self.perf_model.breakdown(outcome.profile, work_scale, launch_scale)
        return ExecutionResult(
            ok=ok,
            stdout=outcome.stdout,
            stderr=stderr,
            exit_code=outcome.exit_code,
            runtime_seconds=breakdown.total,
            profile=outcome.profile,
            breakdown=breakdown,
            args=list(args or []),
            steps_used=outcome.steps_used,
        )
