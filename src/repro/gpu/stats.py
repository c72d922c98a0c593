"""Dynamic work counters and execution-profile events.

The interpreter owns one :class:`ExecutionProfile` per program run.  Host code
accumulates into the ambient host counters; every kernel launch, OpenMP target
region, host-parallel loop, and host<->device transfer appends a structured
event.  The performance model then folds the profile into simulated seconds —
the counters are exact dynamic counts, not estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union


class OpCounters:
    """Mutable work counters (kept tiny and slot-based: hot path)."""

    __slots__ = ("ops", "load_bytes", "store_bytes", "atomics")

    def __init__(self) -> None:
        self.ops = 0.0
        self.load_bytes = 0.0
        self.store_bytes = 0.0
        self.atomics = 0.0

    @property
    def mem_bytes(self) -> float:
        return self.load_bytes + self.store_bytes

    def add(self, other: "OpCounters") -> None:
        self.ops += other.ops
        self.load_bytes += other.load_bytes
        self.store_bytes += other.store_bytes
        self.atomics += other.atomics

    def scaled(self, factor: float) -> "OpCounters":
        out = OpCounters()
        out.ops = self.ops * factor
        out.load_bytes = self.load_bytes * factor
        out.store_bytes = self.store_bytes * factor
        out.atomics = self.atomics * factor
        return out

    def snapshot(self) -> dict:
        return {
            "ops": self.ops,
            "load_bytes": self.load_bytes,
            "store_bytes": self.store_bytes,
            "atomics": self.atomics,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OpCounters(ops={self.ops:.0f}, load={self.load_bytes:.0f}B, "
            f"store={self.store_bytes:.0f}B, atomics={self.atomics:.0f})"
        )


@dataclass
class KernelEvent:
    """One device kernel execution (CUDA launch or OMP target loop body)."""

    name: str
    total_threads: int
    block_size: int
    counters: OpCounters
    #: "cuda" for <<<>>> launches, "omp" for target regions.
    api: str = "cuda"
    #: Parallelism cap imposed by the program (e.g. num_threads(1) / serial
    #: fallback).  None means the full launch width is available.
    parallel_limit: Optional[int] = None
    #: Which interpreter dispatch path executed the launch: "flat" (the
    #: barrier-free fast path), "barrier" (__syncthreads or __shared__),
    #: "slow" (nested per-thread loops), or "omp" for target regions.
    path: str = ""


@dataclass
class TransferEvent:
    """One host<->device memory transfer."""

    bytes: int
    direction: str  # "h2d" | "d2h" | "d2d"
    api: str = "cuda"  # "cuda" (cudaMemcpy) | "omp" (map clause)


@dataclass
class HostParallelEvent:
    """An OpenMP host ``parallel for`` region."""

    counters: OpCounters
    num_threads: int


ProfileEvent = Union[KernelEvent, TransferEvent, HostParallelEvent]


@dataclass
class ExecutionProfile:
    """Complete dynamic work profile of one program run."""

    host: OpCounters = field(default_factory=OpCounters)
    events: List[ProfileEvent] = field(default_factory=list)
    #: Thread-rounds spent parked at a __syncthreads() barrier, summed
    #: over every barrier-mode launch (exact dynamic count).
    barrier_waits: int = 0

    @property
    def kernel_events(self) -> List[KernelEvent]:
        return [e for e in self.events if isinstance(e, KernelEvent)]

    @property
    def transfer_events(self) -> List[TransferEvent]:
        return [e for e in self.events if isinstance(e, TransferEvent)]

    @property
    def total_kernel_launches(self) -> int:
        return len(self.kernel_events)

    @property
    def total_transfer_bytes(self) -> int:
        return sum(e.bytes for e in self.transfer_events)

    @property
    def total_atomics(self) -> float:
        return sum(e.counters.atomics for e in self.kernel_events)

    def launch_paths(self) -> dict:
        """Launch counts per interpreter dispatch path (see KernelEvent)."""
        counts: dict = {}
        for e in self.kernel_events:
            key = e.path or ("omp" if e.api == "omp" else "slow")
            counts[key] = counts.get(key, 0) + 1
        return counts
