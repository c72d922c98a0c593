"""Builtin function and constant catalogue shared by semantics + interpreter.

``where`` controls call-site legality, mirroring nvcc's host/device rules:
``host`` only from host code, ``device`` only from kernels/``__device__``
functions, ``both`` anywhere.  The OpenMP dialect treats ``device`` builtins
(atomicAdd & friends) and the CUDA runtime API as *undeclared* — exactly the
diagnostic a host C++ compiler would give — which is one of the compile-error
classes LASSI's loop must fix when an LLM leaves CUDA idioms in OpenMP output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.minilang import types as ty


@dataclass(frozen=True)
class Builtin:
    name: str
    min_args: int
    max_args: int  # -1 = variadic
    where: str  # "host" | "device" | "both"
    cuda_only: bool  # visible only when compiling the CUDA dialect
    return_rule: str  # "void"|"int"|"long"|"float"|"double"|"arg0"|"ptr-void"|"real-arg"
    py: Optional[Callable] = None  # scalar implementation where applicable


def _mk(name: str, nargs, where: str, ret: str, py=None, cuda_only: bool = False) -> Builtin:
    lo, hi = (nargs, nargs) if isinstance(nargs, int) else nargs
    return Builtin(name, lo, hi, where, cuda_only, ret, py)


_MATH1_F = {
    "sqrtf": math.sqrt, "fabsf": abs, "expf": math.exp, "logf": math.log,
    "log2f": math.log2, "log10f": math.log10, "sinf": math.sin,
    "cosf": math.cos, "tanf": math.tan, "floorf": math.floor,
    "ceilf": math.ceil, "roundf": round, "tanhf": math.tanh,
}
_MATH1_D = {
    "sqrt": math.sqrt, "fabs": abs, "exp": math.exp, "log": math.log,
    "log2": math.log2, "log10": math.log10, "sin": math.sin, "cos": math.cos,
    "tan": math.tan, "floor": math.floor, "ceil": math.ceil, "tanh": math.tanh,
}
_MATH2_F = {
    "powf": math.pow, "fminf": min, "fmaxf": max, "atan2f": math.atan2,
    "fmodf": math.fmod, "hypotf": math.hypot,
}
_MATH2_D = {
    "pow": math.pow, "fmin": min, "fmax": max, "atan2": math.atan2,
    "fmod": math.fmod, "hypot": math.hypot,
}


def _build_table() -> Dict[str, Builtin]:
    table: Dict[str, Builtin] = {}

    def add(b: Builtin) -> None:
        table[b.name] = b

    for name, fn in _MATH1_F.items():
        add(_mk(name, 1, "both", "float", fn))
    for name, fn in _MATH1_D.items():
        add(_mk(name, 1, "both", "double", fn))
    for name, fn in _MATH2_F.items():
        add(_mk(name, 2, "both", "float", fn))
    for name, fn in _MATH2_D.items():
        add(_mk(name, 2, "both", "double", fn))

    add(_mk("abs", 1, "both", "int", abs))
    add(_mk("min", 2, "both", "arg0", min))
    add(_mk("max", 2, "both", "arg0", max))

    add(_mk("printf", (1, -1), "both", "int"))
    add(_mk("fprintf", (2, -1), "host", "int"))
    add(_mk("exit", 1, "host", "void"))
    add(_mk("malloc", 1, "host", "ptr-void"))
    add(_mk("calloc", 2, "host", "ptr-void"))
    add(_mk("free", 1, "host", "void"))
    add(_mk("memset", 3, "host", "ptr-void"))
    add(_mk("memcpy", 3, "host", "ptr-void"))
    add(_mk("atoi", 1, "host", "int"))
    add(_mk("atof", 1, "host", "double"))
    add(_mk("rand", 0, "host", "int"))
    add(_mk("srand", 1, "host", "void"))
    add(_mk("assert", 1, "host", "void"))

    # CUDA runtime API (host side).
    add(_mk("cudaMalloc", 2, "host", "int", cuda_only=True))
    add(_mk("cudaMemcpy", 4, "host", "int", cuda_only=True))
    add(_mk("cudaMemset", 3, "host", "int", cuda_only=True))
    add(_mk("cudaFree", 1, "host", "int", cuda_only=True))
    add(_mk("cudaDeviceSynchronize", 0, "host", "int", cuda_only=True))
    add(_mk("cudaGetLastError", 0, "host", "int", cuda_only=True))
    add(_mk("cudaGetErrorString", 1, "host", "ptr-void", cuda_only=True))

    # CUDA device intrinsics.
    add(_mk("atomicAdd", 2, "device", "real-arg", cuda_only=True))
    add(_mk("atomicSub", 2, "device", "real-arg", cuda_only=True))
    add(_mk("atomicMax", 2, "device", "real-arg", cuda_only=True))
    add(_mk("atomicMin", 2, "device", "real-arg", cuda_only=True))
    add(_mk("atomicExch", 2, "device", "real-arg", cuda_only=True))
    add(_mk("atomicCAS", 3, "device", "real-arg", cuda_only=True))

    # OpenMP runtime library (host side).
    add(_mk("omp_get_num_threads", 0, "host", "int"))
    add(_mk("omp_get_max_threads", 0, "host", "int"))
    add(_mk("omp_get_thread_num", 0, "host", "int"))
    add(_mk("omp_set_num_threads", 1, "host", "void"))
    add(_mk("omp_get_num_devices", 0, "host", "int"))

    return table


BUILTINS: Dict[str, Builtin] = _build_table()

#: Named integer constants (CUDA memcpy kinds and friends).
CONSTANTS: Dict[str, Tuple[int, bool]] = {
    # name -> (value, cuda_only)
    "cudaMemcpyHostToDevice": (1, True),
    "cudaMemcpyDeviceToHost": (2, True),
    "cudaMemcpyDeviceToDevice": (3, True),
    "cudaMemcpyHostToHost": (0, True),
    "cudaSuccess": (0, True),
    "RAND_MAX": (2147483647, False),
    "INT_MAX": (2147483647, False),
    "INT_MIN": (-2147483648, False),
    "FLT_MAX": (3.4028235e38, False),
    "DBL_MAX": (1.7976931348623157e308, False),
}

#: CUDA thread-geometry builtin objects usable as ``name.x`` in kernels.
GEOMETRY_BUILTINS = ("threadIdx", "blockIdx", "blockDim", "gridDim")


def return_type(b: Builtin, arg_types) -> ty.Type:
    """Compute a builtin's return type given argument types."""
    rule = b.return_rule
    if rule == "void":
        return ty.VOID
    if rule == "int":
        return ty.INT
    if rule == "long":
        return ty.LONG
    if rule == "float":
        return ty.FLOAT
    if rule == "double":
        return ty.DOUBLE
    if rule == "ptr-void":
        return ty.Type(ty.Kind.VOID, 1)
    if rule == "arg0":
        return arg_types[0] if arg_types else ty.INT
    if rule == "real-arg":
        # atomics: return the pointee type of the first argument.
        if arg_types and arg_types[0].is_pointer:
            return arg_types[0].pointee()
        return ty.INT
    raise ValueError(f"unknown return rule {rule!r}")
