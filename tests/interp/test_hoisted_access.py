"""Faults, step kills and counts around launch-hoisted pointer accesses.

Flat and slow kernel launchers and ``target`` loop nests resolve each
pointer they may hoist once per launch (:mod:`repro.interp.access`).  A
NULL, freed, unmapped or host pointer resolves to length 0, so it must
still fault only at an access that runs, with the message, detail and
order of the per-access checks it replaces, and the launch's local step
budget must kill at the same step.  Every expected outcome here (stdout,
error, detail, exit code, ``steps_used`` and profile events) was captured
from the per-access form.

The last tests read the generated source, as the emitted-code pin does,
to check that a pointer the body writes or takes the address of, or any
pointer of a body that can free or remap a buffer, keeps the per-access
check.
"""

from __future__ import annotations

import pytest

from repro.gpu.stats import KernelEvent, TransferEvent
from repro.interp import Limits, codegen
from repro.minilang import analyze, parse
from repro.minilang.source import Dialect, SourceFile
from tests.interp.helpers import run_source

#: A kernel whose pointer ``a`` is NULL (kind 0), freed (1) or host memory
#: (2); only thread ``touch`` dereferences it.
KINDS = r"""
__global__ void scale(float* a, float* b, int n, int touch) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    b[i] = b[i] * 2.0f + 1.0f;
    if (i == touch) { a[i] = b[i]; }
  }
}
int main(int argc, char** argv) {
  int kind = atoi(argv[1]);
  int touch = atoi(argv[2]);
  int n = 16;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { h[i] = i * 0.5f; }
  float* d_b;
  cudaMalloc(&d_b, n * sizeof(float));
  cudaMemcpy(d_b, h, n * sizeof(float), cudaMemcpyHostToDevice);
  float* a = NULL;
  if (kind == 1) { cudaMalloc(&a, n * sizeof(float)); cudaFree(a); }
  if (kind == 2) { a = h; }
  scale<<<2, 8>>>(a, d_b, n, touch);
  cudaMemcpy(h, d_b, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.1f %.1f\n", h[0], h[15]);
  return 0;
}
"""

#: ``a[i / z]``: the index can fault by itself, and ``a`` may be NULL.
DIVIDE = r"""
__global__ void pick(int* a, int* out, int z) {
  int i = threadIdx.x;
  out[i] = a[i / z];
}
int main(int argc, char** argv) {
  int z = atoi(argv[1]);
  int null = atoi(argv[2]);
  int* d_a;
  int* d_out;
  cudaMalloc(&d_a, 8 * sizeof(int));
  cudaMalloc(&d_out, 8 * sizeof(int));
  int* a = d_a;
  if (null) { a = NULL; }
  pick<<<1, 4>>>(a, d_out, z);
  int h[8];
  cudaMemcpy(h, d_out, 8 * sizeof(int), cudaMemcpyDeviceToHost);
  printf("%d %d\n", h[0], h[3]);
  return 0;
}
"""

#: A target loop over ``last`` iterations; ``mode`` 0 maps nothing, 1 maps
#: in an enclosing ``target data``, 2 maps on the loop itself.
TARGET = r"""
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  int mode = atoi(argv[2]);
  int last = atoi(argv[3]);
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { a[i] = i * 1.5f; b[i] = 0.0f; }
  if (mode == 0) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < last; i++) { b[i] = a[i] * 2.0f; }
  }
  if (mode == 1) {
    #pragma omp target data map(to: a[0:n]) map(from: b[0:n])
    {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < last; i++) { b[i] = a[i] * 2.0f; }
    }
  }
  if (mode == 2) {
    #pragma omp target teams distribute parallel for map(to: a[0:n]) map(from: b[0:n])
    for (int i = 0; i < last; i++) { b[i] = a[i] * 2.0f; }
  }
  printf("%.1f %.1f\n", b[0], b[n - 1]);
  return 0;
}
"""

#: Step kills inside a flat kernel's inner loop (``via`` 0), inside a
#: device function it calls (1), and inside a slow (atomics) kernel (2).
KERNEL_KILL = r"""
__device__ float burn(float x, int reps) {
  for (int k = 0; k < reps; k++) { x = x * 0.5f + 1.0f; }
  return x;
}
__global__ void spin(float* a, int n, int reps) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float x = a[i];
    for (int k = 0; k < reps; k++) { x = x * 0.5f + 1.0f; }
    a[i] = x;
  }
}
__global__ void spin_call(float* a, int n, int reps) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = burn(a[i], reps); }
}
__global__ void spin_atomic(float* a, int* hits, int n, int reps) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float x = a[i];
    for (int k = 0; k < reps; k++) { x = x * 0.5f + 1.0f; }
    a[i] = x;
    atomicAdd(&hits[i % 4], 1);
  }
}
int main(int argc, char** argv) {
  int via = atoi(argv[1]);
  int reps = atoi(argv[2]);
  int n = 64;
  float* d;
  int* hits;
  cudaMalloc(&d, n * sizeof(float));
  cudaMalloc(&hits, 4 * sizeof(int));
  cudaMemset(hits, 0, 4 * sizeof(int));
  for (int r = 0; r < 3; r++) {
    if (via == 0) { spin<<<2, 32>>>(d, n, reps); }
    if (via == 1) { spin_call<<<2, 32>>>(d, n, reps); }
    if (via == 2) { spin_atomic<<<2, 32>>>(d, hits, n, reps); }
  }
  float h[64];
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.3f %.3f\n", h[0], h[63]);
  return 0;
}
"""

#: Step kills inside a ``collapse(2)`` target nest (``via`` 0) and inside
#: a function the target loop's body calls (1).
TARGET_KILL = r"""
float burn(float x, int reps) {
  for (int k = 0; k < reps; k++) { x = x * 0.5f + 1.0f; }
  return x;
}
int main(int argc, char** argv) {
  int via = atoi(argv[1]);
  int reps = atoi(argv[2]);
  int n = 8;
  float* a = (float*)malloc(n * n * sizeof(float));
  for (int i = 0; i < n * n; i++) { a[i] = i * 0.25f; }
  for (int r = 0; r < 3; r++) {
    if (via == 0) {
      #pragma omp target teams distribute parallel for collapse(2) map(tofrom: a[0:n*n])
      for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
          float x = a[i * n + j];
          for (int k = 0; k < reps; k++) { x = x * 0.5f + 1.0f; }
          a[i * n + j] = x;
        }
      }
    }
    if (via == 1) {
      #pragma omp target teams distribute parallel for map(tofrom: a[0:n*n])
      for (int i = 0; i < n * n; i++) { a[i] = burn(a[i], reps); }
    }
  }
  printf("%.3f %.3f\n", a[0], a[n * n - 1]);
  return 0;
}
"""

#: A call inside a math builtin's arguments raises ``ValueError`` (``(int)``
#: of a NaN) after charging steps: the builtin's result is NaN, and the
#: steps stay charged.  In a kernel (``via`` 0) and in a target loop (1).
MATH_CALL = r"""
float burn_then_trunc(float x, int reps) {
  int s = 0;
  for (int k = 0; k < reps; k++) { s += k; }
  return (int)x + s;
}
int main(int argc, char** argv) {
  int reps = atoi(argv[1]);
  int n = 8;
  float* a = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { a[i] = i * 1.0f; }
  a[3] = 0.0f / 0.0f;
  #pragma omp target teams distribute parallel for map(to: a[0:n]) map(from: out[0:n])
  for (int i = 0; i < n; i++) {
    float r = sqrtf(burn_then_trunc(a[i], reps));
    for (int k = 0; k < reps; k++) { r = r + 1.0f; }
    out[i] = r;
  }
  printf("%.1f %.1f\n", out[0], out[7]);
  return 0;
}
"""

MATH_CALL_CUDA = r"""
__device__ float burn_then_trunc(float x, int reps) {
  int s = 0;
  for (int k = 0; k < reps; k++) { s += k; }
  return (int)x + s;
}
__global__ void k(float* a, float* out, int n, int reps) {
  int i = threadIdx.x;
  if (i < n) {
    float r = sqrtf(burn_then_trunc(a[i], reps));
    for (int k = 0; k < reps; k++) { r = r + 1.0f; }
    out[i] = r;
  }
}
int main(int argc, char** argv) {
  int reps = atoi(argv[1]);
  int n = 8;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { h[i] = i * 1.0f; }
  h[3] = 0.0f / 0.0f;
  float* d_a;
  float* d_out;
  cudaMalloc(&d_a, n * sizeof(float));
  cudaMalloc(&d_out, n * sizeof(float));
  cudaMemcpy(d_a, h, n * sizeof(float), cudaMemcpyHostToDevice);
  k<<<1, 8>>>(d_a, d_out, n, reps);
  cudaMemcpy(h, d_out, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.1f %.1f\n", h[0], h[7]);
  return 0;
}
"""

#: name -> (source, dialect, argv, max_steps or None)
CASES = {
    "null-untouched": (KINDS, Dialect.CUDA, ["0", "-1"], None),
    "null-touched": (KINDS, Dialect.CUDA, ["0", "3"], None),
    "freed-untouched": (KINDS, Dialect.CUDA, ["1", "-1"], None),
    "freed-touched": (KINDS, Dialect.CUDA, ["1", "3"], None),
    "host-untouched": (KINDS, Dialect.CUDA, ["2", "-1"], None),
    "host-touched": (KINDS, Dialect.CUDA, ["2", "3"], None),
    "null-index-divides-by-zero": (DIVIDE, Dialect.CUDA, ["0", "1"], None),
    "index-divides-by-zero": (DIVIDE, Dialect.CUDA, ["0", "0"], None),
    "null-index-in-range": (DIVIDE, Dialect.CUDA, ["1", "1"], None),
    "target-unmapped": (TARGET, Dialect.OMP, ["6", "0", "6"], None),
    "target-unmapped-no-iterations": (TARGET, Dialect.OMP, ["6", "0", "0"], None),
    "target-data-mapped": (TARGET, Dialect.OMP, ["6", "1", "6"], None),
    "target-data-last-iteration-oob": (TARGET, Dialect.OMP, ["6", "1", "7"], None),
    "target-loop-mapped": (TARGET, Dialect.OMP, ["6", "2", "6"], None),
    "target-loop-last-iteration-oob": (TARGET, Dialect.OMP, ["6", "2", "7"], None),
    "kernel-inner-loop-kill": (KERNEL_KILL, Dialect.CUDA, ["0", "20"], 2500),
    "kernel-device-call-kill": (KERNEL_KILL, Dialect.CUDA, ["1", "20"], 2500),
    "slow-kernel-kill": (KERNEL_KILL, Dialect.CUDA, ["2", "20"], 2500),
    "kernel-no-kill": (KERNEL_KILL, Dialect.CUDA, ["0", "20"], 10000),
    "slow-kernel-no-kill": (KERNEL_KILL, Dialect.CUDA, ["2", "20"], 10000),
    "target-nest-kill": (TARGET_KILL, Dialect.OMP, ["0", "20"], 2500),
    "target-call-kill": (TARGET_KILL, Dialect.OMP, ["1", "20"], 2500),
    "target-nest-no-kill": (TARGET_KILL, Dialect.OMP, ["0", "20"], 10000),
    "target-call-no-kill": (TARGET_KILL, Dialect.OMP, ["1", "20"], 10000),
    "kernel-math-call-raises": (MATH_CALL_CUDA, Dialect.CUDA, ["30"], None),
    "kernel-math-call-raises-kill": (MATH_CALL_CUDA, Dialect.CUDA, ["30"], 490),
    "target-math-call-raises": (MATH_CALL, Dialect.OMP, ["30"], None),
    "target-math-call-raises-kill": (MATH_CALL, Dialect.OMP, ["30"], 490),
}


def _event(e) -> tuple:
    if isinstance(e, KernelEvent):
        c = e.counters
        return (e.name, e.total_threads, e.path, c.ops, c.load_bytes,
                c.store_bytes, c.atomics)
    assert isinstance(e, TransferEvent)
    return ("transfer", e.bytes, e.direction)


def outcome(name: str) -> tuple:
    text, dialect, argv, max_steps = CASES[name]
    limits = Limits(max_steps=max_steps) if max_steps else None
    out = run_source(text, dialect, argv=argv, limits=limits)
    return (out.stdout, out.error, out.error_detail, out.exit_code,
            out.steps_used, [_event(e) for e in out.profile.events])


#: name -> (stdout, error, detail, exit code, ``steps_used``, profile events)
EXPECTED = {
    "null-untouched": (
        "1.0 16.0\n", None,
        None, 0, 32,
        [
            ("transfer", 64, "h2d"),
            ("scale", 16, "flat", 112.0, 64.0, 64.0, 0.0),
            ("transfer", 64, "d2h"),
        ]),
    "null-touched": (
        "", "Segmentation fault (core dumped)",
        "NULL pointer dereference", 139, 32,
        [
            ("transfer", 64, "h2d"),
        ]),
    "freed-untouched": (
        "1.0 16.0\n", None,
        None, 0, 32,
        [
            ("transfer", 64, "h2d"),
            ("scale", 16, "flat", 112.0, 64.0, 64.0, 0.0),
            ("transfer", 64, "d2h"),
        ]),
    "freed-touched": (
        "", "CUDA error: an illegal memory access was encountered",
        "use-after-free of buffer a", 1, 32,
        [
            ("transfer", 64, "h2d"),
        ]),
    "host-untouched": (
        "1.0 16.0\n", None,
        None, 0, 32,
        [
            ("transfer", 64, "h2d"),
            ("scale", 16, "flat", 112.0, 64.0, 64.0, 0.0),
            ("transfer", 64, "d2h"),
        ]),
    "host-touched": (
        "", "CUDA error: an illegal memory access was encountered",
        "device code dereferenced unmapped host pointer ?", 1, 32,
        [
            ("transfer", 64, "h2d"),
        ]),
    "null-index-divides-by-zero": (
        "", "Segmentation fault (core dumped)",
        "NULL pointer dereference", 139, 4,
        []),
    "index-divides-by-zero": (
        "", "Floating point exception (core dumped)",
        "integer division by zero", 1, 4,
        []),
    "null-index-in-range": (
        "", "Segmentation fault (core dumped)",
        "NULL pointer dereference", 139, 4,
        []),
    "target-unmapped": (
        "", "CUDA error: an illegal memory access was encountered",
        "device code dereferenced unmapped host pointer ?", 1, 7,
        []),
    "target-unmapped-no-iterations": (
        "0.0 0.0\n", None,
        None, 0, 6,
        [
            ("<target teams distribute parallel for>", 1, "omp", 0.0, 0.0, 0.0, 0.0),
        ]),
    "target-data-mapped": (
        "0.0 15.0\n", None,
        None, 0, 12,
        [
            ("transfer", 24, "h2d"),
            ("<target teams distribute parallel for>", 6, "omp", 12.0, 24.0, 24.0, 0.0),
            ("transfer", 24, "d2h"),
        ]),
    "target-data-last-iteration-oob": (
        "", "CUDA error: an illegal memory access was encountered",
        "index 6 out of bounds for buffer @device of length 6", 1, 13,
        [
            ("transfer", 24, "h2d"),
            ("transfer", 24, "d2h"),
        ]),
    "target-loop-mapped": (
        "0.0 15.0\n", None,
        None, 0, 12,
        [
            ("transfer", 24, "h2d"),
            ("<target teams distribute parallel for>", 6, "omp", 12.0, 24.0, 24.0, 0.0),
            ("transfer", 24, "d2h"),
        ]),
    "target-loop-last-iteration-oob": (
        "", "CUDA error: an illegal memory access was encountered",
        "index 6 out of bounds for buffer @device of length 6", 1, 13,
        [
            ("transfer", 24, "h2d"),
        ]),
    "kernel-inner-loop-kill": (
        "", "execution timed out (killed)",
        "step budget of 2500 exhausted", 1, 2501,
        [
            ("spin", 64, "flat", 5440.0, 256.0, 256.0, 0.0),
        ]),
    "kernel-device-call-kill": (
        "", "execution timed out (killed)",
        "step budget of 2500 exhausted", 1, 2501,
        [
            ("spin_call", 64, "flat", 5440.0, 256.0, 256.0, 0.0),
        ]),
    "slow-kernel-kill": (
        "", "execution timed out (killed)",
        "step budget of 2500 exhausted", 1, 2501,
        [
            ("spin_atomic", 64, "slow", 5504.0, 256.0, 512.0, 64.0),
        ]),
    "kernel-no-kill": (
        "2.000 2.000\n", None,
        None, 0, 4035,
        [
            ("spin", 64, "flat", 5440.0, 256.0, 256.0, 0.0),
            ("spin", 64, "flat", 5440.0, 256.0, 256.0, 0.0),
            ("spin", 64, "flat", 5440.0, 256.0, 256.0, 0.0),
            ("transfer", 256, "d2h"),
        ]),
    "slow-kernel-no-kill": (
        "2.000 2.000\n", None,
        None, 0, 4035,
        [
            ("spin_atomic", 64, "slow", 5504.0, 256.0, 512.0, 64.0),
            ("spin_atomic", 64, "slow", 5504.0, 256.0, 512.0, 64.0),
            ("spin_atomic", 64, "slow", 5504.0, 256.0, 512.0, 64.0),
            ("transfer", 256, "d2h"),
        ]),
    "target-nest-kill": (
        "", "execution timed out (killed)",
        "step budget of 2500 exhausted", 1, 2501,
        [
            ("transfer", 256, "h2d"),
            ("<target teams distribute parallel for>", 64, "omp", 5504.0, 256.0, 256.0, 0.0),
            ("transfer", 256, "d2h"),
            ("transfer", 256, "h2d"),
        ]),
    "target-call-kill": (
        "", "execution timed out (killed)",
        "step budget of 2500 exhausted", 1, 2501,
        [
            ("transfer", 256, "h2d"),
            ("<target teams distribute parallel for>", 64, "omp", 5249.0, 256.0, 256.0, 0.0),
            ("transfer", 256, "d2h"),
            ("transfer", 256, "h2d"),
        ]),
    "target-nest-no-kill": (
        "2.000 2.000\n", None,
        None, 0, 4123,
        [
            ("transfer", 256, "h2d"),
            ("<target teams distribute parallel for>", 64, "omp", 5504.0, 256.0, 256.0, 0.0),
            ("transfer", 256, "d2h"),
            ("transfer", 256, "h2d"),
            ("<target teams distribute parallel for>", 64, "omp", 5504.0, 256.0, 256.0, 0.0),
            ("transfer", 256, "d2h"),
            ("transfer", 256, "h2d"),
            ("<target teams distribute parallel for>", 64, "omp", 5504.0, 256.0, 256.0, 0.0),
            ("transfer", 256, "d2h"),
        ]),
    "target-call-no-kill": (
        "2.000 2.000\n", None,
        None, 0, 4291,
        [
            ("transfer", 256, "h2d"),
            ("<target teams distribute parallel for>", 64, "omp", 5249.0, 256.0, 256.0, 0.0),
            ("transfer", 256, "d2h"),
            ("transfer", 256, "h2d"),
            ("<target teams distribute parallel for>", 64, "omp", 5249.0, 256.0, 256.0, 0.0),
            ("transfer", 256, "d2h"),
            ("transfer", 256, "h2d"),
            ("<target teams distribute parallel for>", 64, "omp", 5249.0, 256.0, 256.0, 0.0),
            ("transfer", 256, "d2h"),
        ]),
    "kernel-math-call-raises": (
        "50.9 51.0\n", None,
        None, 0, 504,
        [
            ("transfer", 32, "h2d"),
            ("k", 8, "flat", 1511.0, 32.0, 32.0, 0.0),
            ("transfer", 32, "d2h"),
        ]),
    "kernel-math-call-raises-kill": (
        "", "execution timed out (killed)",
        "step budget of 490 exhausted", 1, 491,
        [
            ("transfer", 32, "h2d"),
        ]),
    "target-math-call-raises": (
        "50.9 51.0\n", None,
        None, 0, 504,
        [
            ("transfer", 32, "h2d"),
            ("<target teams distribute parallel for>", 8, "omp", 1503.0, 32.0, 32.0, 0.0),
            ("transfer", 32, "d2h"),
        ]),
    "target-math-call-raises-kill": (
        "", "execution timed out (killed)",
        "step budget of 490 exhausted", 1, 491,
        [
            ("transfer", 32, "h2d"),
        ]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outcome_matches_per_access_checks(name):
    assert outcome(name) == EXPECTED[name]


def generated(text: str, dialect: Dialect, monkeypatch) -> str:
    """The Python that :class:`codegen.ProgramCode` generates for ``text``."""
    sources = []

    def capture(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(codegen, "compile", capture, raising=False)
    program, diags = parse(SourceFile("t", text, dialect))
    assert not diags.has_errors and analyze(program, dialect).ok
    codegen.ProgramCode(program, dialect)
    return sources[-1]


def function_source(source: str, name: str) -> str:
    """The lines of generated function ``name``."""
    start = source.index(f"    def {name}(")
    end = source.find("\n    def ", start + 1)
    return source[start:] if end < 0 else source[start:end]


#: Kernel statements that write ``a`` or take its address, and one that
#: declares another ``a`` in an inner block: a declaration writes only the
#: variable it declares, so the parameter stays hoisted.
WRITES = {
    "assigns": "a = a + 1;",
    "increments": "a++;",
    "declares": "if (n < 0) { float* a = NULL; }",
    "takes-address": "float** pa = &a;",
}


@pytest.mark.parametrize("write", [None] + sorted(WRITES))
def test_kernel_pointer_is_hoisted_only_when_never_written(write, monkeypatch):
    text = (
        "__global__ void k(float* a, int n) {\n"
        f"  {WRITES.get(write, '')}\n"
        "  int i = threadIdx.x;\n"
        "  if (i < n) { a[i] = 1.0f; }\n"
        "}\n"
        "int main() {\n"
        "  float* d;\n"
        "  cudaMalloc(&d, 4 * sizeof(float));\n"
        "  k<<<1, 4>>>(d, 4);\n"
        "  return 0;\n"
        "}\n"
    )
    kernel = function_source(generated(text, Dialect.CUDA, monkeypatch), "k_k")
    if write in (None, "declares"):
        assert "_view(v_a)" in kernel and ".buf" not in kernel
    else:
        assert "_view(" not in kernel and ".buf" in kernel


#: ``target`` loop statements that write ``a`` or may free or remap it.
TARGET_WRITES = {
    "reassigns": "a = b;",
    "calls-a-function": "b[i] = same(b[i]);",
    "frees": "if (i < 0) { free(b); }",
}


@pytest.mark.parametrize("write", [None] + sorted(TARGET_WRITES))
def test_target_loop_pointer_is_hoisted_only_when_stable(write, monkeypatch):
    text = (
        "float same(float x) { return x; }\n"
        "int main() {\n"
        "  int n = 8;\n"
        "  float* a = (float*)malloc(n * sizeof(float));\n"
        "  float* b = (float*)malloc(n * sizeof(float));\n"
        "  #pragma omp target teams distribute parallel for map(tofrom: a[0:n], b[0:n])\n"
        "  for (int i = 0; i < n; i++) {\n"
        "    a[i] = 1.0f;\n"
        f"    {TARGET_WRITES.get(write, '')}\n"
        "  }\n"
        "  return 0;\n"
        "}\n"
    )
    main = function_source(generated(text, Dialect.OMP, monkeypatch), "f_main")
    if write is None:
        assert "_view(v_a)" in main and "v_a.buf" not in main
    else:
        assert "_view(v_a)" not in main and "v_a.buf" in main
