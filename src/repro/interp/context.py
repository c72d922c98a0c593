"""Execution context shared by generated guest code and the executor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ResourceLimitExceeded
from repro.gpu.stats import ExecutionProfile, OpCounters
from repro.interp.memory import MemoryManager
from repro.telemetry.log import get_logger

logger = get_logger("interp")


@dataclass(frozen=True)
class Limits:
    """Resource limits for a guest run.

    ``max_steps`` bounds loop iterations + function calls; an LLM-injected
    infinite loop then surfaces as a (deterministic) timeout, which is the
    execution-error signal the LASSI loop would see from a hung process.
    """

    max_steps: int = 30_000_000
    max_stdout_bytes: int = 4_000_000


class ExecContext:
    """Mutable state of one guest program run."""

    __slots__ = (
        "memory", "profile", "counters", "stdout_parts", "stdout_bytes",
        "space", "geom", "rand_state", "steps_left", "limits", "exit_code",
    )

    def __init__(self, limits: Optional[Limits] = None) -> None:
        self.memory = MemoryManager()
        self.profile = ExecutionProfile()
        self.counters: OpCounters = self.profile.host
        self.stdout_parts: List[str] = []
        self.stdout_bytes = 0
        self.space = "host"  # "host" | "device"
        #: (threadIdx.x, blockIdx.x, blockDim.x, gridDim.x) in device code.
        self.geom = (0, 0, 1, 1)
        self.rand_state = 1  # glibc-style LCG seed, srand(1) default
        self.limits = limits or Limits()
        self.steps_left = self.limits.max_steps
        self.exit_code = 0

    # -- stdout ---------------------------------------------------------
    def write_stdout(self, text: str) -> None:
        self.stdout_bytes += len(text)
        if self.stdout_bytes > self.limits.max_stdout_bytes:
            raise ResourceLimitExceeded(
                "output limit exceeded",
                detail=f"program wrote more than {self.limits.max_stdout_bytes} bytes",
            )
        self.stdout_parts.append(text)

    @property
    def stdout(self) -> str:
        return "".join(self.stdout_parts)

    # -- steps ------------------------------------------------------------
    def consume_steps(self, n: int = 1) -> None:
        self.steps_left -= n
        if self.steps_left < 0:
            logger.debug(
                "step budget of %d exhausted — killing the guest run",
                self.limits.max_steps,
            )
            raise ResourceLimitExceeded(
                "execution timed out (killed)",
                detail=f"step budget of {self.limits.max_steps} exhausted",
            )

    # -- C rand() ---------------------------------------------------------
    def c_srand(self, seed: int) -> None:
        self.rand_state = int(seed) & 0x7FFFFFFF

    def c_rand(self) -> int:
        # LCG step (glibc TYPE_0 constants) returning the *high* bits, so
        # ``rand() % small_n`` is well distributed — raw LCG low bits cycle
        # with tiny periods, which would make every benchmark histogram
        # artificially uniform.
        self.rand_state = (self.rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return (self.rand_state >> 13) & 0x3FFFF
