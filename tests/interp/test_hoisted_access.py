"""Faults, step kills and counts around hoisted pointer accesses.

Flat and slow kernel launchers and ``target`` loop nests resolve each
pointer they may hoist once per launch, and each loop of a generated
function once per loop (:mod:`repro.interp.access`).  A NULL, freed,
unmapped, device or host pointer resolves to length 0, so it must still
fault only at an access that runs, with the message, detail and order of
the per-access checks it replaces, and the local step budget must kill at
the same step.  Every expected outcome here (stdout, error, detail, exit
code, ``steps_used``, profile events and, for the host loops, the host
counters) was captured from the per-access form.

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


#: A host loop through ``p``: the host array ``b`` (kind 0), NULL (1),
#: freed (2), device memory (3) or a buffer of 4 (4).  The loop reads
#: ``p[i]`` (``via`` 0), ``p[i + 1]`` whose index charges an op (1), or
#: stores ``p[i] = s`` (2).
HOST_KINDS = r"""
int main(int argc, char** argv) {
  int kind = atoi(argv[1]);
  int via = atoi(argv[2]);
  int n = 8;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { b[i] = i * 0.5f; }
  float* d;
  cudaMalloc(&d, n * sizeof(float));
  float* p = b;
  if (kind == 1) { p = NULL; }
  if (kind == 2) { p = a; free(a); }
  if (kind == 3) { p = d; }
  if (kind == 4) { p = (float*)malloc(4 * sizeof(float)); }
  float s = 1.0f;
  for (int i = 0; i < n - 1; i++) {
    s = s * 0.5f + b[i];
    if (via == 0) { s += p[i]; }
    if (via == 1) { s += p[i + 1]; }
    if (via == 2) { p[i] = s; }
  }
  printf("%.3f\n", s);
  return 0;
}
"""

#: Kills in a hoisted host loop (``via`` 0), in a nested one (1), and in a
#: device function a kernel calls (2).
HOST_KILL = r"""
__device__ float total(float* a, int n) {
  float s = 0.0f;
  for (int k = 0; k < n; k++) { s += a[k]; }
  return s;
}
__global__ void sums(float* a, float* out, int n) {
  int i = threadIdx.x;
  out[i] = total(a, n);
}
int main(int argc, char** argv) {
  int via = atoi(argv[1]);
  int n = 16;
  float* h = (float*)malloc(n * n * sizeof(float));
  for (int i = 0; i < n * n; i++) { h[i] = i * 0.25f; }
  float s = 0.0f;
  if (via == 0) {
    for (int r = 0; r < 4; r++) {
      int i = 0;
      while (i < n * n) { s += h[i]; i++; }
    }
  }
  if (via == 1) {
    for (int i = 0; i < n; i++) {
      for (int j = 0; j < n; j++) { s += h[i * n + j] * h[j]; }
    }
  }
  if (via == 2) {
    float* d;
    float* d_out;
    cudaMalloc(&d, n * sizeof(float));
    cudaMalloc(&d_out, 4 * sizeof(float));
    cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyHostToDevice);
    sums<<<1, 4>>>(d, d_out, n);
    cudaMemcpy(h, d_out, 4 * sizeof(float), cudaMemcpyDeviceToHost);
    s = h[3];
  }
  printf("%.2f\n", s);
  return 0;
}
"""

#: ``break`` (``via`` 0), ``return`` (1) and ``exit()`` (2) out of a
#: hoisted loop, at the element that is negative.
HOST_EXITS = r"""
int find(float* a, int n) {
  for (int i = 0; i < n; i++) {
    if (a[i] < 0.0f) { return i; }
  }
  return -1;
}
int main(int argc, char** argv) {
  int via = atoi(argv[1]);
  int n = 12;
  float* a = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { a[i] = 10.0f - i * 1.5f; }
  int at = -1;
  if (via == 0) {
    for (int i = 0; i < n; i++) {
      if (a[i] < 0.0f) { at = i; break; }
    }
  }
  if (via == 1) { at = find(a, n); }
  if (via == 2) {
    int i = 0;
    do {
      if (a[i] < 0.0f) { printf("exit at %d\n", i); exit(3); }
      i++;
    } while (i < n);
  }
  printf("%d %.1f\n", at, a[n - 1]);
  return 0;
}
"""

#: A host loop around a kernel launch: the kernel's steps come out of the
#: same budget as the loop's.
HOST_LAUNCH = r"""
__global__ void step(float* a, int n, int reps) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float x = a[i];
    for (int k = 0; k < reps; k++) { x = x * 0.5f + 1.0f; }
    a[i] = x;
  }
}
int main(int argc, char** argv) {
  int reps = atoi(argv[1]);
  int n = 32;
  float* h = (float*)malloc(n * sizeof(float));
  float* d;
  cudaMalloc(&d, n * sizeof(float));
  for (int i = 0; i < n; i++) { h[i] = i * 1.0f; }
  cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyHostToDevice);
  float s = 0.0f;
  for (int r = 0; r < 4; r++) {
    step<<<1, 32>>>(d, n, reps);
    for (int i = 0; i < n; i++) { s += h[i]; }
  }
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.2f %.3f\n", s, h[31]);
  return 0;
}
"""

#: A host loop around a ``target`` loop (mapped by an enclosing
#: ``target data``): the nest's steps come out of the loop's budget.
HOST_TARGET = r"""
int main(int argc, char** argv) {
  int reps = atoi(argv[1]);
  int n = 32;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { a[i] = i * 1.0f; b[i] = 0.0f; }
  float s = 0.0f;
  #pragma omp target data map(tofrom: a[0:n]) map(from: b[0:n])
  {
    for (int r = 0; r < 4; r++) {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < n; i++) {
        float x = a[i];
        for (int k = 0; k < reps; k++) { x = x * 0.5f + 1.0f; }
        b[i] = x;
      }
      for (int i = 0; i < n; i++) { s += a[i]; }
    }
  }
  printf("%.2f %.3f\n", s, b[31]);
  return 0;
}
"""

#: A cast inside ``sqrtf``'s argument raises ``ValueError`` (``(int)`` of a
#: NaN) after the argument's loads, and ``logf`` of a negative value
#: raises: each result is NaN, and the loads stay charged.
HOST_MATH = r"""
int main(int argc, char** argv) {
  int n = 6;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* r = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { a[i] = i * 1.5f; b[i] = i * 1.0f; }
  b[2] = 0.0f / 0.0f;
  for (int i = 0; i < n; i++) { r[i] = sqrtf(a[i] + (int)b[i]) + logf(a[i] - 4.0f); }
  printf("%.3f %.3f %.3f\n", r[0], r[2], r[5]);
  return 0;
}
"""

#: name -> (source, dialect, argv, max_steps or None)
HOST_CASES = {
    "host-array": (HOST_KINDS, Dialect.CUDA, ["0", "0"], None),
    "host-array-index-op": (HOST_KINDS, Dialect.CUDA, ["0", "1"], None),
    "host-array-store": (HOST_KINDS, Dialect.CUDA, ["0", "2"], None),
    "host-null": (HOST_KINDS, Dialect.CUDA, ["1", "0"], None),
    "host-null-index-op": (HOST_KINDS, Dialect.CUDA, ["1", "1"], None),
    "host-null-store": (HOST_KINDS, Dialect.CUDA, ["1", "2"], None),
    "host-freed": (HOST_KINDS, Dialect.CUDA, ["2", "0"], None),
    "host-freed-index-op": (HOST_KINDS, Dialect.CUDA, ["2", "1"], None),
    "host-freed-store": (HOST_KINDS, Dialect.CUDA, ["2", "2"], None),
    "host-device": (HOST_KINDS, Dialect.CUDA, ["3", "0"], None),
    "host-device-store": (HOST_KINDS, Dialect.CUDA, ["3", "2"], None),
    "host-too-short": (HOST_KINDS, Dialect.CUDA, ["4", "0"], None),
    "host-too-short-index-op": (HOST_KINDS, Dialect.CUDA, ["4", "1"], None),
    "host-too-short-store": (HOST_KINDS, Dialect.CUDA, ["4", "2"], None),
    "host-loop-kill": (HOST_KILL, Dialect.CUDA, ["0"], 700),
    "host-loop-no-kill": (HOST_KILL, Dialect.CUDA, ["0"], 2000),
    "host-nested-loop-kill": (HOST_KILL, Dialect.CUDA, ["1"], 200),
    "host-nested-loop-no-kill": (HOST_KILL, Dialect.CUDA, ["1"], 2000),
    "device-function-loop-kill": (HOST_KILL, Dialect.CUDA, ["2"], 300),
    "device-function-loop-no-kill": (HOST_KILL, Dialect.CUDA, ["2"], 2000),
    "host-loop-break": (HOST_EXITS, Dialect.C, ["0"], None),
    "host-loop-return": (HOST_EXITS, Dialect.C, ["1"], None),
    "host-loop-exit": (HOST_EXITS, Dialect.C, ["2"], None),
    "host-loop-return-kill": (HOST_EXITS, Dialect.C, ["1"], 16),
    "host-loop-around-launch": (HOST_LAUNCH, Dialect.CUDA, ["10"], None),
    "host-loop-around-launch-kill": (HOST_LAUNCH, Dialect.CUDA, ["10"], 900),
    "host-loop-around-target-loop": (HOST_TARGET, Dialect.OMP, ["10"], None),
    "host-loop-around-target-loop-kill": (HOST_TARGET, Dialect.OMP, ["10"], 900),
    "host-math-argument-raises": (HOST_MATH, Dialect.C, [], None),
}


def host_outcome(name: str) -> tuple:
    """:func:`outcome`, with the host counters, for a host-loop case."""
    text, dialect, argv, max_steps = HOST_CASES[name]
    limits = Limits(max_steps=max_steps) if max_steps else None
    out = run_source(text, dialect, argv=argv, limits=limits)
    h = out.profile.host
    return (out.stdout, out.error, out.error_detail, out.exit_code, out.steps_used,
            (h.ops, h.load_bytes, h.store_bytes, h.atomics),
            [_event(e) for e in out.profile.events])


#: name -> (stdout, error, detail, exit code, ``steps_used``, host
#: (ops, load bytes, store bytes, atomics), profile events)
HOST_EXPECTED = {
    "host-array": (
        "10.039\n", None,
        None, 0, 15, (113.0, 72.0, 32.0, 0.0),
        []),
    "host-array-index-op": (
        "11.031\n", None,
        None, 0, 15, (120.0, 72.0, 32.0, 0.0),
        []),
    "host-array-store": (
        "5.023\n", None,
        None, 0, 15, (99.0, 44.0, 60.0, 0.0),
        []),
    "host-null": (
        "", "Segmentation fault (core dumped)",
        "NULL pointer dereference", 139, 9, (41.0, 20.0, 32.0, 0.0),
        []),
    "host-null-index-op": (
        "", "Segmentation fault (core dumped)",
        "NULL pointer dereference", 139, 9, (42.0, 20.0, 32.0, 0.0),
        []),
    "host-null-store": (
        "", "Segmentation fault (core dumped)",
        "NULL pointer dereference", 139, 9, (42.0, 20.0, 32.0, 0.0),
        []),
    "host-freed": (
        "", "Segmentation fault (core dumped)",
        "use-after-free of buffer ?", 139, 9, (41.0, 20.0, 32.0, 0.0),
        []),
    "host-freed-index-op": (
        "", "Segmentation fault (core dumped)",
        "use-after-free of buffer ?", 139, 9, (43.0, 20.0, 32.0, 0.0),
        []),
    "host-freed-store": (
        "", "Segmentation fault (core dumped)",
        "use-after-free of buffer ?", 139, 9, (42.0, 20.0, 32.0, 0.0),
        []),
    "host-device": (
        "", "Segmentation fault (core dumped)",
        "host code dereferenced device pointer d", 139, 9, (41.0, 20.0, 32.0, 0.0),
        []),
    "host-device-store": (
        "", "Segmentation fault (core dumped)",
        "host code dereferenced device pointer d", 139, 9, (42.0, 20.0, 32.0, 0.0),
        []),
    "host-too-short": (
        "", "Segmentation fault (core dumped)",
        "index 4 out of bounds for buffer ? of length 4", 139, 13, (86.0, 52.0, 32.0, 0.0),
        []),
    "host-too-short-index-op": (
        "", "Segmentation fault (core dumped)",
        "index 4 out of bounds for buffer ? of length 4", 139, 12, (80.0, 44.0, 32.0, 0.0),
        []),
    "host-too-short-store": (
        "", "Segmentation fault (core dumped)",
        "index 4 out of bounds for buffer ? of length 4", 139, 13, (79.0, 36.0, 48.0, 0.0),
        []),
    "host-loop-kill": (
        "", "execution timed out (killed)",
        "step budget of 700 exhausted", 1, 701, (3247.0, 1776.0, 1024.0, 0.0),
        []),
    "host-loop-no-kill": (
        "32640.00\n", None,
        None, 0, 1284, (6169.0, 4104.0, 1024.0, 0.0),
        []),
    "host-nested-loop-kill": (
        "", "execution timed out (killed)",
        "step budget of 200 exhausted", 1, 201, (805.0, 8.0, 800.0, 0.0),
        []),
    "host-nested-loop-no-kill": (
        "15640.00\n", None,
        None, 0, 528, (3129.0, 2056.0, 1024.0, 0.0),
        []),
    "device-function-loop-kill": (
        "", "execution timed out (killed)",
        "step budget of 300 exhausted", 1, 301, (1035.0, 8.0, 1024.0, 0.0),
        [
            ("transfer", 64, "h2d"),
        ]),
    "device-function-loop-no-kill": (
        "30.00\n", None,
        None, 0, 328, (1037.0, 12.0, 1024.0, 0.0),
        [
            ("transfer", 64, "h2d"),
            ("sums", 4, "flat", 260.0, 256.0, 16.0, 0.0),
            ("transfer", 16, "d2h"),
        ]),
    "host-loop-break": (
        "7 -6.5\n", None,
        None, 0, 20, (88.0, 44.0, 48.0, 0.0),
        []),
    "host-loop-return": (
        "7 -6.5\n", None,
        None, 0, 21, (88.0, 44.0, 48.0, 0.0),
        []),
    "host-loop-exit": (
        "exit at 7\n", None,
        None, 3, 20, (85.0, 40.0, 48.0, 0.0),
        []),
    "host-loop-return-kill": (
        "", "execution timed out (killed)",
        "step budget of 16 exhausted", 1, 17, (67.0, 20.0, 48.0, 0.0),
        []),
    "host-loop-around-launch": (
        "1984.00 2.000\n", None,
        None, 0, 1572, (628.0, 524.0, 128.0, 0.0),
        [
            ("transfer", 128, "h2d"),
            ("step", 32, "flat", 1440.0, 128.0, 128.0, 0.0),
            ("step", 32, "flat", 1440.0, 128.0, 128.0, 0.0),
            ("step", 32, "flat", 1440.0, 128.0, 128.0, 0.0),
            ("step", 32, "flat", 1440.0, 128.0, 128.0, 0.0),
            ("transfer", 128, "d2h"),
        ]),
    "host-loop-around-launch-kill": (
        "", "execution timed out (killed)",
        "step budget of 900 exhausted", 1, 901, (364.0, 264.0, 128.0, 0.0),
        [
            ("transfer", 128, "h2d"),
            ("step", 32, "flat", 1440.0, 128.0, 128.0, 0.0),
            ("step", 32, "flat", 1440.0, 128.0, 128.0, 0.0),
        ]),
    "host-loop-around-target-loop": (
        "1984.00 2.028\n", None,
        None, 0, 1572, (626.0, 524.0, 256.0, 0.0),
        [
            ("transfer", 128, "h2d"),
            ("<target teams distribute parallel for>", 32, "omp", 1344.0, 128.0, 128.0, 0.0),
            ("<target teams distribute parallel for>", 32, "omp", 1344.0, 128.0, 128.0, 0.0),
            ("<target teams distribute parallel for>", 32, "omp", 1344.0, 128.0, 128.0, 0.0),
            ("<target teams distribute parallel for>", 32, "omp", 1344.0, 128.0, 128.0, 0.0),
            ("transfer", 128, "d2h"),
            ("transfer", 128, "d2h"),
        ]),
    "host-loop-around-target-loop-kill": (
        "", "execution timed out (killed)",
        "step budget of 900 exhausted", 1, 901, (363.0, 264.0, 256.0, 0.0),
        [
            ("transfer", 128, "h2d"),
            ("<target teams distribute parallel for>", 32, "omp", 1344.0, 128.0, 128.0, 0.0),
            ("<target teams distribute parallel for>", 32, "omp", 1344.0, 128.0, 128.0, 0.0),
            ("transfer", 128, "d2h"),
            ("transfer", 128, "d2h"),
        ]),
    "host-math-argument-raises": (
        "nan nan 4.788\n", None,
        None, 0, 12, (129.0, 84.0, 76.0, 0.0),
        []),
}


@pytest.mark.parametrize("name", sorted(HOST_CASES))
def test_host_loop_outcome_matches_per_access_checks(name):
    assert host_outcome(name) == HOST_EXPECTED[name]


#: ``sqrtf`` and ``logf`` of loaded values in a host loop and in a
#: ``target`` loop.  From ``v`` = -9 on every call raises inside Python's
#: ``math`` and is caught as NaN.
MATH_DOMAIN = r"""
int main(int argc, char** argv) {
  float v = atof(argv[1]);
  int n = 4;
  float* a = (float*)malloc(n * sizeof(float));
  float* r = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { a[i] = v - i; }
  for (int i = 0; i < n; i++) { r[i] = sqrtf(a[i] * 2.0f) + logf(a[i] + 1.0f); }
  printf("%.3f\n", r[0]);
  #pragma omp target teams distribute parallel for map(to: a[0:n]) map(from: r[0:n])
  for (int i = 0; i < n; i++) { r[i] = sqrtf(a[i] * 2.0f) + logf(a[i] + 1.0f); }
  printf("%.3f\n", r[n - 1]);
  return 0;
}
"""


def test_a_math_builtin_that_raises_charges_what_one_that_returns_does():
    """The ops and loads of a math builtin's arguments count when the
    builtin itself raises, in host code and in a ``target`` region."""
    runs = [run_source(MATH_DOMAIN, Dialect.OMP, argv=[v]) for v in ("9.0", "-9.0")]
    assert [(out.error, out.stdout) for out in runs] == [
        (None, "6.545\n5.410\n"), (None, "nan\nnan\n")]
    host, target = [
        [(c.ops, c.load_bytes, c.store_bytes, c.atomics)
         for c in [out.profile.host] + [e.counters for e in out.profile.kernel_events]]
        for out in runs
    ]
    assert host == target and len(host) == 2 and host[0][0] > 0


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


#: Host loop statements that write, step or take the address of ``a``, or
#: may free or remap it, and the dialect that has them.
LOOP_WRITES = {
    "assigns": ("a = b;", Dialect.C),
    "steps": ("a++;", Dialect.C),
    "takes-address": ("float** pa = &a;", Dialect.C),
    "frees": ("if (i < 0) { free(b); }", Dialect.C),
    "calls-a-function": ("b[i] = same(b[i]);", Dialect.C),
    "launches": ("if (i < 0) { k<<<1, 1>>>(b); }", Dialect.CUDA),
    "maps": ("#pragma omp target data map(to: b[0:n])\n    { }", Dialect.OMP),
}


@pytest.mark.parametrize("write", [None] + sorted(LOOP_WRITES))
def test_host_loop_pointer_is_hoisted_only_when_stable(write, monkeypatch):
    stmt, dialect = LOOP_WRITES.get(write, ("", Dialect.C))
    kernel = "__global__ void k(float* x) { }\n" if dialect is Dialect.CUDA else ""
    text = (
        kernel + "float same(float x) { return x; }\n"
        "int main() {\n"
        "  int n = 8;\n"
        "  float* a = (float*)malloc(n * sizeof(float));\n"
        "  float* b = (float*)malloc(n * sizeof(float));\n"
        "  for (int i = 0; i < n; i++) {\n"
        "    b[i] = a[i];\n"
        f"    {stmt}\n"
        "  }\n"
        "  return 0;\n"
        "}\n"
    )
    main = function_source(generated(text, dialect, monkeypatch), "f_main")
    if write is None:
        assert "_view(v_a, DEV)" in main and ".buf" not in main
    else:
        assert "_view(v_a" not in main and ".buf" in main
