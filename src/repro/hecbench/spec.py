"""Application specification shared by the suite, pipeline and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.minilang.source import Dialect, SourceFile


@dataclass(frozen=True)
class AppSpec:
    """One HeCBench-style application in both dialects.

    ``paper_args`` is the runtime-argument list reported in Table IV;
    ``args`` is the reduced argument list the simulator actually executes.
    ``work_scale`` / ``launch_scale`` relate the reduced run to the nominal
    one for the performance model (see :mod:`repro.gpu.perfmodel`).
    """

    name: str
    category: str
    paper_args: List[str]
    args: List[str]
    cuda_source: str
    omp_source: str
    work_scale: float
    launch_scale: float
    #: Table IV reference runtimes (seconds) on the paper's A100.
    paper_runtime_cuda: Optional[float] = None
    paper_runtime_omp: Optional[float] = None
    notes: str = ""

    def source(self, dialect: Dialect) -> str:
        if dialect is Dialect.CUDA:
            return self.cuda_source
        if dialect is Dialect.OMP:
            return self.omp_source
        raise ValueError(f"no {dialect} source for app {self.name!r}")

    def source_file(self, dialect: Dialect) -> SourceFile:
        return SourceFile(
            f"{self.name}{dialect.file_extension}", self.source(dialect), dialect
        )
