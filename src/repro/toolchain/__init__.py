"""Toolchain facade: compiler drivers and program execution.

This is the boundary the LASSI pipeline sees.  A :class:`CompilerDriver`
mimics invoking ``nvcc`` / ``clang++ -fopenmp`` on a source file: it returns
a structured :class:`CompileResult` whose ``stderr`` is real diagnostic text.
The :class:`Executor` runs a compiled program on the simulated platform and
reports stdout, stderr and the *simulated* runtime from the performance
model — the numbers the paper's Tables IV, VI and VII are built from.
"""

from repro.toolchain.compiler import (
    CompileCache,
    CompileResult,
    CompilerDriver,
    clear_compile_cache,
    compile_cache_stats,
    compiler_for,
    CUDA_COMPILER,
    OMP_COMPILER,
)
from repro.toolchain.executor import ExecutionResult, Executor

__all__ = [
    "CompileCache",
    "CompileResult",
    "CompilerDriver",
    "clear_compile_cache",
    "compile_cache_stats",
    "compiler_for",
    "CUDA_COMPILER",
    "OMP_COMPILER",
    "ExecutionResult",
    "Executor",
]
