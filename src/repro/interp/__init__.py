"""Deterministic interpreter for MiniCUDA / MiniOMP programs.

Architecture:

* :mod:`repro.interp.codegen` writes each program as Python source (one
  function per guest function, one launcher per kernel with its thread
  loop, OpenMP regions inlined) and builds it with ``compile()`` once per
  compiled program; guest locals are Python locals, so a statement costs
  its bytecodes instead of one Python call per AST node.  Guest cost
  (ops, bytes, atomics, steps) is counted exactly as before.
* :mod:`repro.interp.memory` provides NumPy-free list-backed buffers with
  bounds/space/use-after-free checking.  A variable whose address is taken
  (or a ``__shared__`` scalar) lives in a one-cell buffer, so ``&x`` is an
  ordinary pointer like ``&a[i]``.  Guest bugs surface as the same
  runtime errors a real platform produces ("Segmentation fault", "CUDA
  error: an illegal memory access was encountered", ...), which is exactly
  the stderr text LASSI's self-correction loop consumes.
* :mod:`repro.interp.executor` owns program setup, binds the generated
  code to a run, performs CUDA kernel launches (including ``__syncthreads``
  barrier scheduling) and implements the C library and CUDA runtime calls.
"""

from repro.interp.executor import ProgramRunner, RunOutcome
from repro.interp.context import ExecContext, Limits

__all__ = ["ProgramRunner", "RunOutcome", "ExecContext", "Limits"]
