"""Guest-cost pin: every execution's observable output and cost counters.

A host-speed change to the interpreter must leave every run's guest cost
byte-identical.  These digests cover what one execution exposes: stdout,
stderr, exit code, ``steps_used``, the host counters, the barrier-wait
count and every ``ExecutionProfile`` event with its counters.

They cover every execution of the golden session slice (27 runs, 9 of
them faulted with an illegal memory access) and a set of small programs
for paths the slice does not reach: a barrier kernel, an atomics kernel
on the nested (slow) path, step-budget kills, a fault inside a serial
``#pragma omp target`` region (whose counters are recorded on the way
out), a host ``parallel for`` reduction, and host faults after counted
work.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import ExperimentRunner
from repro.gpu.stats import HostParallelEvent, KernelEvent, TransferEvent
from repro.interp import Limits
from repro.minilang import analyze, parse
from repro.minilang.source import Dialect, SourceFile
from repro.toolchain.executor import Executor
from tests.experiments.test_stage_graph_compat import GOLDEN_SLICE


def _counters(c) -> list:
    return [c.ops, c.load_bytes, c.store_bytes, c.atomics]


def _event(e) -> list:
    if isinstance(e, KernelEvent):
        return ["kernel", e.name, e.total_threads, e.block_size, e.api,
                e.parallel_limit, e.path, _counters(e.counters)]
    if isinstance(e, TransferEvent):
        return ["transfer", e.bytes, e.direction, e.api]
    assert isinstance(e, HostParallelEvent)
    return ["host-parallel", e.num_threads, _counters(e.counters)]


def execution_record(result) -> list:
    """The observable surface of one ``Executor.run`` result."""
    prof = result.profile
    return [
        result.stdout, result.stderr, result.exit_code, result.steps_used,
        _counters(prof.host), prof.barrier_waits,
        [_event(e) for e in prof.events],
    ]


def digest(records) -> str:
    text = json.dumps(records, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_program(text: str, dialect: Dialect, argv=(), max_steps=None):
    source = SourceFile("pin" + dialect.file_extension, text, dialect)
    program, diags = parse(source)
    assert not diags.has_errors, diags.render(source)
    sema = analyze(program, dialect)
    assert sema.ok, sema.diagnostics.render(source)
    limits = Limits(max_steps=max_steps) if max_steps else None
    return Executor(limits=limits).run(program, dialect, args=list(argv))


BARRIER_KERNEL = r"""
__global__ void block_sum(float* in, float* out, int n) {
  __shared__ float tile[8];
  int t = threadIdx.x;
  int i = blockIdx.x * blockDim.x + t;
  tile[t] = 0.0f;
  if (i < n) { tile[t] = in[i] * 2.0f + 1.0f; }
  __syncthreads();
  for (int s = blockDim.x / 2; s > 0; s = s / 2) {
    if (t < s) { tile[t] += tile[t + s]; }
    __syncthreads();
  }
  if (t == 0) { out[blockIdx.x] = tile[0]; }
}
int main() {
  int n = 29;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { h[i] = i % 7 - 2.5f; }
  float* d_in; float* d_out;
  cudaMalloc(&d_in, n * sizeof(float));
  cudaMalloc(&d_out, 4 * sizeof(float));
  cudaMemcpy(d_in, h, n * sizeof(float), cudaMemcpyHostToDevice);
  block_sum<<<4, 8>>>(d_in, d_out, n);
  float r[4];
  cudaMemcpy(r, d_out, 4 * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.2f %.2f %.2f %.2f\n", r[0], r[1], r[2], r[3]);
  return 0;
}
"""

ATOMICS_KERNEL = r"""
__device__ int bucket(int v, int nb) { return v % nb; }
__global__ void histogram(int* data, int* bins, float* total, int n, int nb) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= n) return;
  int b = bucket(data[i], nb);
  atomicAdd(&bins[b], 1);
  atomicAdd(total, data[i] * 0.5f);
  atomicMax(&bins[nb], data[i]);
}
int main() {
  int n = 50; int nb = 5;
  int* h = (int*)malloc(n * sizeof(int));
  srand(7);
  for (int i = 0; i < n; i++) { h[i] = rand() % 100; }
  int* d; int* bins; float* total;
  cudaMalloc(&d, n * sizeof(int));
  cudaMalloc(&bins, (nb + 1) * sizeof(int));
  cudaMalloc(&total, sizeof(float));
  cudaMemset(bins, 0, (nb + 1) * sizeof(int));
  cudaMemcpy(d, h, n * sizeof(int), cudaMemcpyHostToDevice);
  histogram<<<(n + 15) / 16, 16>>>(d, bins, total, n, nb);
  int hb[6]; float t[1];
  cudaMemcpy(hb, bins, (nb + 1) * sizeof(int), cudaMemcpyDeviceToHost);
  cudaMemcpy(t, total, sizeof(float), cudaMemcpyDeviceToHost);
  printf("%d %d %d %d %d max=%d total=%.1f\n", hb[0], hb[1], hb[2], hb[3], hb[4], hb[5], t[0]);
  return 0;
}
"""

FLAT_KERNEL = r"""
__global__ void saxpy(float* x, float* y, float a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float acc = y[i];
    for (int k = 0; k < 3; k++) { acc = acc * 0.5f + a * x[i]; }
    y[i] = i % 2 == 0 ? acc : -acc;
  }
}
int main(int argc, char** argv) {
  int n = 96;
  int reps = atoi(argv[1]);
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { h[i] = i / 4; }
  float* x; float* y;
  cudaMalloc(&x, n * sizeof(float));
  cudaMalloc(&y, n * sizeof(float));
  cudaMemcpy(x, h, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(y, h, n * sizeof(float), cudaMemcpyHostToDevice);
  for (int r = 0; r < reps; r++) {
    saxpy<<<(n + 31) / 32, 32>>>(x, y, 1.5f, n);
  }
  cudaMemcpy(h, y, n * sizeof(float), cudaMemcpyDeviceToHost);
  double s = 0.0;
  for (int i = 0; i < n; i++) { s += h[i]; }
  printf("sum %.4f\n", s);
  return 0;
}
"""

OMP_TARGET_FAULT = r"""
int main() {
  int n = 16;
  int* a = (int*)malloc(n * sizeof(int));
  for (int i = 0; i < n; i++) { a[i] = i * 3; }
  int acc = 0;
  #pragma omp target map(tofrom: a[0:n])
  {
    for (int i = 0; i < n + 4; i++) {
      acc += a[i] * 2 + 1;
      a[i] = acc;
    }
  }
  printf("%d\n", acc);
  return 0;
}
"""

OMP_TARGET_SERIAL = r"""
int main() {
  int n = 12;
  double* a = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) { a[i] = i * 0.25; }
  #pragma omp target map(tofrom: a[0:n])
  {
    for (int i = 1; i < n; i++) { a[i] = a[i - 1] + a[i] * a[i]; }
  }
  printf("%.5f\n", a[n - 1]);
  return 0;
}
"""

HOST_PARALLEL = r"""
int main() {
  int n = 40;
  double* v = (double*)malloc(n * sizeof(double));
  for (int i = 0; i < n; i++) { v[i] = (i % 5) * 1.5; }
  double sum = 2.0;
  int hits = 0;
  #pragma omp parallel for reduction(+: sum)
  for (int i = 0; i < n; i++) { sum += v[i] * v[i]; }
  #pragma omp parallel for num_threads(4)
  for (int i = 0; i < n; i++) { if (v[i] > 3.0) { v[i] = v[i] / 2; } }
  for (int i = 0; i < n; i++) { if (v[i] == 3.0) hits++; }
  printf("%.3f %d\n", sum, hits);
  return 0;
}
"""

OMP_OFFLOAD = r"""
float clampf(float v, float lo, float hi) {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}
int main() {
  int rows = 6; int cols = 5;
  float* m = (float*)malloc(rows * cols * sizeof(float));
  float* out = (float*)malloc(rows * cols * sizeof(float));
  for (int i = 0; i < rows * cols; i++) { m[i] = (i * 7) % 11 - 3; }
  float best = -1000.0f;
  int cnt = 0;
  #pragma omp target data map(to: m[0:rows*cols]) map(from: out[0:rows*cols])
  {
    #pragma omp target teams distribute parallel for collapse(2)
    for (int r = 0; r < rows; r++) {
      for (int c = 0; c < cols; c++) {
        out[r * cols + c] = clampf(m[r * cols + c] * 1.5f, -2.0f, 6.0f);
      }
    }
    #pragma omp target teams distribute parallel for reduction(max: best)
    for (int i = 0; i < rows * cols; i += 2) {
      best = fmaxf(best, m[i]);
    }
    #pragma omp target parallel for reduction(+: cnt) num_threads(64)
    for (int i = rows * cols - 1; i >= 0; i--) {
      if (m[i] > 0 && m[i] != 4) { cnt += 1; } else { continue; }
    }
  }
  printf("%.2f %.2f %.1f %d\n", out[0], out[rows * cols - 1], best, cnt);
  return 0;
}
"""

HOST_MIX = r"""
int g_calls = 0;
int fib(int k) { g_calls++; if (k < 2) return k; return fib(k - 1) + fib(k - 2); }
int main(int argc, char** argv) {
  int n = 12;
  int* v = (int*)calloc(n, sizeof(int));
  int i = 0;
  while (i < n) { v[i] = fib(i) ^ (i << 2); i += 1; }
  int j = 0;
  do { j++; if (j % 3 == 0) continue; v[j % n] -= j; } while (j < 20);
  int bits = 0;
  for (int k = 0; k < n; k++) { bits |= v[k] & 0xff; bits = bits >> 1; }
  long big = 1;
  for (int k = 0; k < 20 && big < 100000; k++) big *= 3;
  double q = 7.0 / 2 + 7 / 2 + (-7) % 3 + sqrt(2.0) * fabs(-1.5);
  int* p = v + 3;
  p += 2;
  *p = *p + 100;
  int t = (n > 5 || bits < 0) ? p[-1] : p[1];
  memset(v, 0, 2 * sizeof(int));
  printf("%d %d %ld %.6f %d %d %d %s\n", bits, g_calls, big, q, v[5], t, v[0], argv[1]);
  free(v);
  return 7;
}
"""

HOST_FAULT = r"""
int main() {
  int n = 10;
  float* a = (float*)malloc(n * sizeof(float));
  float s = 0.0f;
  for (int i = 0; i < n; i++) { a[i] = i * 1.5f; s += a[i] * a[i]; }
  printf("partial %.2f\n", s);
  for (int i = 0; i <= n; i++) { s += a[i] / (i + 1); }
  printf("never %.2f\n", s);
  return 0;
}
"""

HOST_DIV_ZERO = r"""
int main() {
  int acc = 0;
  for (int i = 5; i >= 0; i--) { acc += 100 / i + acc % 7; }
  printf("%d\n", acc);
  return 0;
}
"""

HOST_LOOP_KILL = r"""
int main() {
  int x = 0;
  int* a = (int*)malloc(4 * sizeof(int));
  while (1) { x = x + 1; a[x % 4] = x * 2; if (x % 50 == 0) printf("%d\n", x); }
  return 0;
}
"""

CUDA_DEVICE_FAULT = r"""
__device__ float at(float* p, int k) { return p[k] * 2.0f; }
__global__ void shift(float* p, float* q, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  q[i] = at(p, i + 1) + i;
}
int main() {
  int n = 64;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) h[i] = i;
  float* p; float* q;
  cudaMalloc(&p, n * sizeof(float));
  cudaMalloc(&q, n * sizeof(float));
  cudaMemcpy(p, h, n * sizeof(float), cudaMemcpyHostToDevice);
  shift<<<2, 32>>>(p, q, n);
  cudaMemcpy(h, q, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.1f\n", h[3]);
  return 0;
}
"""

# Corner cases of the language: jumps out of loops, regions and kernels,
# pointer arithmetic, C integer semantics, NaN math, atomics, faults.

EDGE_KERNEL_RETURN_IN_LOOP = r"""
__global__ void k(int* p, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  for (int j = 0; j < 10; j++) { if (j == i % 4) { p[i] = j * 10; return; } p[i] += 1; }
  p[i] = -1;
}
int main() { int n = 16; int* d; cudaMalloc(&d, n * sizeof(int)); cudaMemset(d, 0, n * sizeof(int));
  k<<<2, 8>>>(d, n); int h[16]; cudaMemcpy(h, d, n * sizeof(int), cudaMemcpyDeviceToHost);
  for (int i = 0; i < n; i++) printf("%d ", h[i]); printf("\n"); return 0; }
"""

EDGE_OMP_NEST_RETURN_BREAK_CONTINUE = r"""
int f(int* a, int n) {
  #pragma omp target teams distribute parallel for map(tofrom: a[0:n])
  for (int i = 0; i < n; i++) {
    if (i == 5) continue;
    if (i == 9) return 7;
    for (int j = 0; j < 3; j++) { if (j == 2 && i == 2) return 3; a[i] += j; }
    a[i] = a[i] * 2;
  }
  return a[0] + a[n-1];
}
int main() { int n = 12; int* a = (int*)malloc(n * sizeof(int)); for (int i = 0; i < n; i++) a[i] = i;
  int r = f(a, n); for (int i = 0; i < n; i++) printf("%d ", a[i]); printf("| %d\n", r); return 0; }
"""

EDGE_HOST_PARALLEL_RETURN = r"""
int g(double* v, int n) {
  double s = 1.0;
  #pragma omp parallel for reduction(*: s)
  for (int i = 0; i < n; i++) { if (v[i] > 4.0) return i; s *= v[i]; }
  printf("s=%.2f\n", s);
  return -1;
}
int main() { double v[6]; for (int i = 0; i < 6; i++) v[i] = 1.0 + i; int r = g(v, 6); printf("%d\n", r);
  r = g(v, 3); printf("%d\n", r); return 0; }
"""

EDGE_POINTER_ARITH_MIX = r"""
int main() {
  int* a = (int*)malloc(10 * sizeof(int));
  for (int i = 0; i < 10; i++) a[i] = i * i;
  int* p = a + 2; int* q = a + 7;
  long d = q - p;
  p++; ++p; p += 2; p -= 1; q--;
  int s = *p + *(q) + p[1] + (p - a);
  int* z = NULL;
  if (z == NULL && p != q) s += 100;
  if (!z) s += 1000;
  int t = (p == a + 5) ? 1 : 0;
  *p += 3; *p *= 2; p[1]++; ++p[1]; a[0] = a[0]--; 
  printf("%ld %d %d %d %d %d\n", d, s, t, *p, p[1], a[0]);
  free(a); return 0; }
"""

EDGE_VOID_PTR_FLOW = r"""
int main() {
  void* raw = malloc(16);
  float* f = raw;
  f[1] = 2.75f; f[2] = f[1] / 2;
  int* ip = (int*)raw;
  long addr = (long)f;
  float x = 1;
  float y = x / 2;
  printf("%.3f %.3f %d %.3f %d\n", f[1], f[2], ip[1], y, addr == addr);
  return 0; }
"""

EDGE_INT_TRUNCATION_EVERYWHERE = r"""
int half(int v) { return v / 2.0; }
float twice(float v) { return v * 2; }
int g = 7.9;
int main() {
  int a = 3.7; a += 1.6; a *= 1.5; a -= 0.5;
  int b = half(9); int c = half(9.9); float d = twice(3);
  float e = 5 / 2; float f2 = 5 / 2.0; double h = 7 % 3 + (-7) / 2 + 7 / (-2) + (-7) % (-3);
  int m = -17 % 5; int sh = (1 << 10) >> 3 | 5 ^ 3 & 6; int nb = ~5;
  g = g * 1.5;
  char ch = 'A' + 2;
  printf("%d %d %d %.2f %.2f %.2f %.2f %d %d %d %d %c\n", a, b, c, d, e, f2, h, m, sh, nb, g, ch);
  return 0; }
"""

EDGE_LOGIC_SIDE_EFFECTS = r"""
int calls = 0;
int bump(int v) { calls++; return v; }
int main() {
  int x = 0; int y = 5;
  int a = (x && bump(1)) || bump(0) || (y > 3 && bump(7));
  int b = x ? bump(2) : (y ? bump(3) + bump(4) : 0);
  int c = !(x || y) + !x;
  int i = 0; int arr[4]; arr[0] = 1; arr[1] = 2; arr[2] = 3; arr[3] = 4;
  int v = arr[i++] + arr[i++] * arr[++i];
  int w = (y = 2) + y;
  while (bump(i) < 8 && i++ < 10) { }
  printf("%d %d %d %d %d %d %d %d\n", a, b, c, calls, v, w, i, y);
  return 0; }
"""

EDGE_FLOAT_MATH = r"""
int main() {
  double a = sqrt(-1.0); double b = log(0.0); double c = pow(2.0, 0.5);
  float d = fminf(3.0f, -2.0f) + fmaxf(1.0f, 9.5f); int e = abs(-7) + min(3, 9) + max(2, 8);
  double f = floor(2.7) + ceil(2.1) + fabs(-1.25) + exp(1.0) + tanh(0.5) + fmod(7.5, 2.0) + atan2(1.0, 1.0) + hypot(3.0, 4.0);
  double z = 0.0; double g = 1.0 / z; double h = -1.0 / z; double i = z / z;
  printf("%f %f %f %f %d %f %f %f %f\n", a, b, c, d, e, f, g, h, i);
  return 0; }
"""

EDGE_ATOMICS_VARIETY = r"""
__global__ void k(int* c, float* f, int* m) {
  int i = threadIdx.x;
  int old = atomicAdd(&c[0], 2);
  atomicSub(&c[1], 1);
  atomicMax(m, i * 3 % 7);
  atomicMin(&m[1], 10 - i);
  atomicExch(&c[2], i);
  atomicCAS(&c[3], i, i + 100);
  atomicAdd(f, 0.5f);
  if (old > 1000) c[4] = old;
}
int main() { int* c; float* f; int* m;
  cudaMalloc(&c, 5 * sizeof(int)); cudaMalloc(&f, sizeof(float)); cudaMalloc(&m, 2 * sizeof(int));
  cudaMemset(c, 0, 5 * sizeof(int)); cudaMemset(f, 0, sizeof(float)); cudaMemset(m, 0, 2 * sizeof(int));
  k<<<1, 12>>>(c, f, m);
  int hc[5]; float hf[1]; int hm[2];
  cudaMemcpy(hc, c, 5 * sizeof(int), 2); cudaMemcpy(hf, f, sizeof(float), 2); cudaMemcpy(hm, m, 2 * sizeof(int), 2);
  printf("%d %d %d %d %d %.1f %d %d\n", hc[0], hc[1], hc[2], hc[3], hc[4], hf[0], hm[0], hm[1]); return 0; }
"""

EDGE_BARRIER_DIVERGENCE = r"""
__global__ void k(int* p) {
  __shared__ int s;
  int t = threadIdx.x;
  if (t < 2) { p[t] = t; return; }
  __syncthreads();
  p[t] = t * 2;
}
int main() { int* d; cudaMalloc(&d, 4 * sizeof(int)); k<<<1, 4>>>(d); printf("done\n"); return 0; }
"""

EDGE_BARRIER_LOOP_RETURN = r"""
__device__ int sq(int v) { return v * v; }
__global__ void k(float* out, int n) {
  __shared__ float buf[16];
  int t = threadIdx.x;
  buf[t] = sq(t) + blockIdx.x;
  for (int s = 1; s < blockDim.x; s *= 2) {
    __syncthreads();
    if (t % (2 * s) == 0 && t + s < blockDim.x) buf[t] += buf[t + s];
  }
  __syncthreads();
  if (t == 0) out[blockIdx.x] = buf[0];
}
int main() { float* d; cudaMalloc(&d, 3 * sizeof(float)); k<<<3, 16>>>(d, 16);
  float h[3]; cudaMemcpy(h, d, 3 * sizeof(float), 2); printf("%.1f %.1f %.1f\n", h[0], h[1], h[2]); return 0; }
"""

EDGE_EXIT_AND_ASSERT = r"""
int main() {
  int s = 0;
  for (int i = 0; i < 100; i++) { s += i; if (s > 50) { printf("exit at %d\n", i); exit(3); } }
  return 0; }
"""

EDGE_ASSERT_FAIL = r"""
int main() { int x = 4; assert(x == 4); printf("ok\n"); assert(x > 10); printf("never\n"); return 0; }
"""

EDGE_PRINTF_MISSING = r"""
int main() { printf("%d %d\n", 5); return 0; }
"""

EDGE_OMP_TARGET_DATA_NESTED = r"""
int main() {
  int n = 8; float* a = (float*)malloc(n * sizeof(float)); float* b = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { a[i] = i; b[i] = 0; }
  #pragma omp target data map(tofrom: a[0:n]) map(alloc: b[0:n])
  {
    #pragma omp target data map(to: a[0:n])
    {
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < n; i++) { b[i] = a[i] * 2; }
    }
    #pragma omp target teams distribute parallel for thread_limit(32) num_threads(8)
    for (int i = n - 1; i >= 0; i -= 2) { a[i] = b[i] + 1; }
    #pragma omp target
    { for (int i = 0; i < n; i++) a[i] += 0.5f; }
  }
  #pragma omp parallel
  { int q = 3; }
  #pragma omp critical
  { n = n + 0; }
  #pragma omp barrier
  #pragma omp atomic
  n += 1;
  printf("%.1f %.1f %.1f %d\n", a[0], a[7], b[3], n);
  return 0; }
"""

EDGE_OMP_NONCANONICAL = r"""
int main() {
  int n = 6; int* a = (int*)malloc(n * sizeof(int));
  for (int i = 0; i < n; i++) a[i] = 0;
  int k = 0;
  #pragma omp target teams distribute parallel for map(tofrom: a[0:n])
  for (int i = 0; i != n; i++) { a[i] = i + 1; }
  #pragma omp target teams distribute parallel for map(tofrom: a[0:n]) collapse(2)
  for (int i = 0; i < 2; i++) { for (int j = 0; j < 3; j += 1) { a[i * 3 + j] += 10; } }
  #pragma omp target teams distribute parallel for map(tofrom: a[0:n]) reduction(max: k)
  for (k = 0; k < n; k = k + 2) { a[k] += 1000; }
  for (int i = 0; i < n; i++) printf("%d ", a[i]); printf("%d\n", k);
  return 0; }
"""

EDGE_OMP_UNMAPPED_HOST_FAULT = r"""
int main() {
  int n = 4; int* a = (int*)malloc(n * sizeof(int)); int* b = (int*)malloc(n * sizeof(int));
  for (int i = 0; i < n; i++) { a[i] = i; b[i] = i; }
  #pragma omp target map(tofrom: a[0:n])
  { a[0] = 5; a[1] = b[1]; }
  return 0; }
"""

EDGE_DEVICE_HOST_PTR_FAULT = r"""
__global__ void k(float* p) { p[0] = 1.0f; }
int main() { float* h = (float*)malloc(4 * sizeof(float)); k<<<1, 1>>>(h); return 0; }
"""

EDGE_HOST_DEVICE_PTR_FAULT = r"""
int main() { float* d; cudaMalloc(&d, 16); d[0] = 2.0f; return 0; }
"""

EDGE_USE_AFTER_FREE_AND_DOUBLE = r"""
int main() { int* p = (int*)malloc(8); p[0] = 1; free(p); printf("%d\n", p[0]); return 0; }
"""

EDGE_BAD_LAUNCH_CONFIG = r"""
__global__ void k(int* p) { p[threadIdx.x] = 1; }
int main() { int* d; cudaMalloc(&d, 64); k<<<1, 2048>>>(d); return 0; }
"""

EDGE_MEMCPY_MEMSET_CALLOC = r"""
int main() {
  double* a = (double*)calloc(6, sizeof(double)); double* b = (double*)malloc(6 * sizeof(double));
  for (int i = 0; i < 6; i++) a[i] = i * 1.5;
  memcpy(b, a, 6 * sizeof(double)); memset(a, 0, 3 * sizeof(double));
  int* c = (int*)malloc(4 * sizeof(int)); memset(c, 1, 4 * sizeof(int));
  printf("%.1f %.1f %.1f %d %d\n", a[1], a[4], b[5], c[0], atoi("42") + (int)atof("2.5"));
  return 0; }
"""

EDGE_RAND_SRAND = r"""
int main() { srand(3); int s = 0; for (int i = 0; i < 20; i++) { s += rand() % 97; } printf("%d %d\n", s, RAND_MAX > 0); return 0; }
"""

EDGE_DO_WHILE_CONTINUE = r"""
int main() { int i = 0; int s = 0;
  do { i++; if (i % 2) continue; s += i; if (i > 12) break; } while (i < 20);
  for (;;) { s++; if (s > 60) break; }
  int j = 0; while (j < 5) { j++; if (j == 3) continue; s += j; }
  printf("%d %d\n", s, i); return 0; }
"""

EDGE_STEP_KILL_IN_CALL = r"""
int spin(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
int main() { int t = 0; for (int k = 0; k < 100; k++) { t += spin(50); printf("%d\n", t); } return 0; }
"""

EDGE_CUDA_SHARED_SCALAR = r"""
__global__ void k(int* out) {
  __shared__ int flag;
  __shared__ float tile[4];
  int t = threadIdx.x;
  tile[t] = t * 1.5f;
  __syncthreads();
  out[t] = tile[3 - t] * 2;
}
int main() { int* d; cudaMalloc(&d, 4 * sizeof(int)); k<<<1, 4>>>(d); int h[4];
  cudaMemcpy(h, d, 4 * sizeof(int), 2); printf("%d %d %d %d\n", h[0], h[1], h[2], h[3]); return 0; }
"""

EDGE_HOST_STACK_ARRAY = r"""
int sum(int* v, int n) { int s = 0; for (int i = 0; i < n; i++) s += v[i]; return s; }
int main() { int v[8]; for (int i = 0; i < 8; i++) v[i] = i * 3; float w[3]; w[2] = 1.5; 
  printf("%d %.1f %.1f\n", sum(v, 8), w[0], w[2]); v[8] = 1; return 0; }
"""

EDGE_CUDA_MEMCPY_DIR = r"""
int main() { float* d; float* h = (float*)malloc(16); cudaMalloc(&d, 16);
  int r1 = cudaMemcpy(d, h, 16, cudaMemcpyDeviceToHost); int r2 = cudaMemcpy(d, h, 16, 7);
  int r3 = cudaMemcpy(d, h, 16, cudaMemcpyHostToDevice); cudaDeviceSynchronize(); int e = cudaGetLastError();
  printf("%d %d %d %d %s\n", r1, r2, r3, e, cudaGetErrorString(e)); cudaFree(d); cudaFree(d); return 0; }
"""

EDGE_ARGV_USE = r"""
int main(int argc, char** argv) { int n = argc > 1 ? atoi(argv[1]) : 5; printf("%d %s %d\n", n * 2, argv[0], argc); return 0; }
"""

EDGE_NESTED_OMP_REDUCTION_INT = r"""
int main() {
  int n = 10; int cnt = 2; int mx = 3; float fs = 0.5f;
  int* a = (int*)malloc(n * sizeof(int)); for (int i = 0; i < n; i++) a[i] = (i * 7) % 5;
  #pragma omp target teams distribute parallel for map(to: a[0:n]) reduction(+: cnt)
  for (int i = 0; i < n; i++) cnt += a[i];
  #pragma omp target teams distribute parallel for map(to: a[0:n]) reduction(max: mx)
  for (int i = 0; i < n; i++) mx = a[i] > mx ? a[i] : mx;
  #pragma omp target teams distribute parallel for map(to: a[0:n]) reduction(+: fs)
  for (int i = 0; i < 0; i++) fs += a[i];
  #pragma omp parallel for reduction(+: cnt) num_threads(3)
  for (int i = 0; i < n; i++) cnt += 1;
  printf("%d %d %.2f\n", cnt, mx, fs);
  return 0; }
"""

EDGE_UNBOUND_IN_DEAD_BRANCH = r"""
int main() { int x = 1; if (x > 5) { x = 2; } printf("%d\n", x); return 0; }
"""

EDGE_KERNEL_GRID_STRIDE_DEVICE_FN = r"""
__device__ float f(float v, int i) { if (i % 3 == 0) return v * 2; return v + threadIdx.x; }
__global__ void k(float* p, int n) {
  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n; i += blockDim.x * gridDim.x) { p[i] = f(p[i], i); }
}
int main() { int n = 37; float* h = (float*)malloc(n * sizeof(float)); for (int i = 0; i < n; i++) h[i] = i;
  float* d; cudaMalloc(&d, n * sizeof(float)); cudaMemcpy(d, h, n * sizeof(float), 1); k<<<2, 8>>>(d, n);
  cudaMemcpy(h, d, n * sizeof(float), 2); float s = 0; for (int i = 0; i < n; i++) s += h[i]; printf("%.1f\n", s); return 0; }
"""

EDGE_COMPOUND_COND_INDEX = r"""
int main() { int a[4]; a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4; int x = 1; int y = 0; int j = 1;
  a[x && y + 1] += 2; a[x ? j + 1 : 0] *= 3; a[(y || x - 1) + 3] -= 1; a[x && j - 1]++; ++a[y ? 0 : j + 2];
  printf("%d %d %d %d\n", a[0], a[1], a[2], a[3]); return 0; }
"""

#: name -> (dialect, source, argv, step budget or None)
PROGRAMS = {
    "barrier-kernel": (Dialect.CUDA, BARRIER_KERNEL, (), None),
    "atomics-slow-path": (Dialect.CUDA, ATOMICS_KERNEL, (), None),
    "flat-kernel": (Dialect.CUDA, FLAT_KERNEL, ("4",), None),
    "flat-kernel-step-kill": (Dialect.CUDA, FLAT_KERNEL, ("40",), 2500),
    "flat-kernel-loop-kill": (Dialect.CUDA, FLAT_KERNEL, ("3",), 900),
    "barrier-kernel-step-kill": (Dialect.CUDA, BARRIER_KERNEL, (), 130),
    "omp-target-fault": (Dialect.OMP, OMP_TARGET_FAULT, (), None),
    "omp-target-serial": (Dialect.OMP, OMP_TARGET_SERIAL, (), None),
    "omp-target-serial-kill": (Dialect.OMP, OMP_TARGET_SERIAL, (), 20),
    "host-parallel-reduction": (Dialect.OMP, HOST_PARALLEL, (), None),
    "omp-offload-mix": (Dialect.OMP, OMP_OFFLOAD, (), None),
    "omp-offload-loop-kill": (Dialect.OMP, OMP_OFFLOAD, (), 60),
    "host-mix": (Dialect.C, HOST_MIX, ("tag",), None),
    "host-segfault": (Dialect.C, HOST_FAULT, (), None),
    "host-div-zero": (Dialect.C, HOST_DIV_ZERO, (), None),
    "host-loop-kill": (Dialect.C, HOST_LOOP_KILL, (), 500),
    "cuda-device-function-fault": (Dialect.CUDA, CUDA_DEVICE_FAULT, (), None),
    "edge-kernel-return-in-loop": (Dialect.CUDA, EDGE_KERNEL_RETURN_IN_LOOP, ("21",), None),
    "edge-omp-nest-return-break-continue": (Dialect.OMP, EDGE_OMP_NEST_RETURN_BREAK_CONTINUE, ("21",), None),
    "edge-omp-nest-return-break-continue-kill": (Dialect.OMP, EDGE_OMP_NEST_RETURN_BREAK_CONTINUE, ("21",), 40),
    "edge-host-parallel-return": (Dialect.OMP, EDGE_HOST_PARALLEL_RETURN, ("21",), None),
    "edge-pointer-arith-mix": (Dialect.C, EDGE_POINTER_ARITH_MIX, ("21",), None),
    "edge-void-ptr-flow": (Dialect.C, EDGE_VOID_PTR_FLOW, ("21",), None),
    "edge-int-truncation-everywhere": (Dialect.C, EDGE_INT_TRUNCATION_EVERYWHERE, ("21",), None),
    "edge-logic-side-effects": (Dialect.C, EDGE_LOGIC_SIDE_EFFECTS, ("21",), None),
    "edge-logic-side-effects-kill": (Dialect.C, EDGE_LOGIC_SIDE_EFFECTS, ("21",), 40),
    "edge-float-math": (Dialect.C, EDGE_FLOAT_MATH, ("21",), None),
    "edge-atomics-variety": (Dialect.CUDA, EDGE_ATOMICS_VARIETY, ("21",), None),
    "edge-barrier-divergence": (Dialect.CUDA, EDGE_BARRIER_DIVERGENCE, ("21",), None),
    "edge-barrier-loop-return": (Dialect.CUDA, EDGE_BARRIER_LOOP_RETURN, ("21",), None),
    "edge-barrier-loop-return-kill": (Dialect.CUDA, EDGE_BARRIER_LOOP_RETURN, ("21",), 40),
    "edge-exit-and-assert": (Dialect.C, EDGE_EXIT_AND_ASSERT, ("21",), None),
    "edge-assert-fail": (Dialect.C, EDGE_ASSERT_FAIL, ("21",), None),
    "edge-printf-missing": (Dialect.C, EDGE_PRINTF_MISSING, ("21",), None),
    "edge-omp-target-data-nested": (Dialect.OMP, EDGE_OMP_TARGET_DATA_NESTED, ("21",), None),
    "edge-omp-noncanonical": (Dialect.OMP, EDGE_OMP_NONCANONICAL, ("21",), None),
    "edge-omp-unmapped-host-fault": (Dialect.OMP, EDGE_OMP_UNMAPPED_HOST_FAULT, ("21",), None),
    "edge-device-host-ptr-fault": (Dialect.CUDA, EDGE_DEVICE_HOST_PTR_FAULT, ("21",), None),
    "edge-host-device-ptr-fault": (Dialect.CUDA, EDGE_HOST_DEVICE_PTR_FAULT, ("21",), None),
    "edge-use-after-free-and-double": (Dialect.C, EDGE_USE_AFTER_FREE_AND_DOUBLE, ("21",), None),
    "edge-bad-launch-config": (Dialect.CUDA, EDGE_BAD_LAUNCH_CONFIG, ("21",), None),
    "edge-memcpy-memset-calloc": (Dialect.C, EDGE_MEMCPY_MEMSET_CALLOC, ("21",), None),
    "edge-rand-srand": (Dialect.C, EDGE_RAND_SRAND, ("21",), None),
    "edge-do-while-continue": (Dialect.C, EDGE_DO_WHILE_CONTINUE, ("21",), None),
    "edge-step-kill-in-call": (Dialect.C, EDGE_STEP_KILL_IN_CALL, ("21",), None),
    "edge-step-kill-in-call-kill": (Dialect.C, EDGE_STEP_KILL_IN_CALL, ("21",), 400),
    "edge-cuda-shared-scalar": (Dialect.CUDA, EDGE_CUDA_SHARED_SCALAR, ("21",), None),
    "edge-host-stack-array": (Dialect.C, EDGE_HOST_STACK_ARRAY, ("21",), None),
    "edge-cuda-memcpy-dir": (Dialect.CUDA, EDGE_CUDA_MEMCPY_DIR, ("21",), None),
    "edge-argv-use": (Dialect.C, EDGE_ARGV_USE, ("21",), None),
    "edge-nested-omp-reduction-int": (Dialect.OMP, EDGE_NESTED_OMP_REDUCTION_INT, ("21",), None),
    "edge-unbound-in-dead-branch": (Dialect.C, EDGE_UNBOUND_IN_DEAD_BRANCH, ("21",), None),
    "edge-kernel-grid-stride-device-fn": (Dialect.CUDA, EDGE_KERNEL_GRID_STRIDE_DEVICE_FN, ("21",), None),
    "edge-kernel-grid-stride-device-fn-kill": (Dialect.CUDA, EDGE_KERNEL_GRID_STRIDE_DEVICE_FN, ("21",), 40),
    "edge-compound-cond-index": (Dialect.C, EDGE_COMPOUND_COND_INDEX, ("21",), None),
}

PROGRAM_DIGESTS = {
    "atomics-slow-path":
        "97c3e8d9c1e8a9a56d4f69fef06e76e8e67997e1c1eca1270befbc8f570894fb",
    "barrier-kernel":
        "74beaf7c726d45b3b4a99e2fda87d17928e680c118c0b0cb5eb9154feda5a7cd",
    "barrier-kernel-step-kill":
        "6975a978d2ed073f82b2b730988efdef8b414ee8853cc21698353364dde963ff",
    "cuda-device-function-fault":
        "fc32491180852d3f8a05dffa17454b167bcda6aba87ba41857746d71dd5032eb",
    "edge-argv-use":
        "bbccae8dc173b70f8a4eea3ce5439a6aa26aceb8b5373a71e1620bbb550edf83",
    "edge-assert-fail":
        "61a4ceb6fb82c0d1a47496f70262a6c7561244363f0761909543f7fc2b9e03ba",
    "edge-atomics-variety":
        "00a5c75ec4b158c52310dfc881b5cdc6ae72a419d4270a317da82ea38c6f67e9",
    "edge-bad-launch-config":
        "70877419699ea24c8d2d243e5aa3cfdfff0a5e9521105c3e7f2c38bb47f2af54",
    "edge-barrier-divergence":
        "e085019fe59ba51143edf71beafb371ac6f6b97fc3708156f18b4e74314653e3",
    "edge-barrier-loop-return":
        "75e1a3b24890b05bb9bed8bef0df8e2ccdb2fd599ec75ceb24713878ae249e60",
    "edge-barrier-loop-return-kill":
        "122592c80cece902f66963edd6a5b27095f11db35bef9ab55766c003eb238a50",
    "edge-compound-cond-index":
        "c004a91879cf3fd9a435161bc9ac8bf65b803caaf7a560bac752d538e78460fe",
    "edge-cuda-memcpy-dir":
        "877e78523ce13ca3326aaa461198ac59222fe9c834925a6cbd8bfc9832e4aa8f",
    "edge-cuda-shared-scalar":
        "1a049fd42441434be47c49c70c4037932bdd1103a1582faf8136b58694eb6c31",
    "edge-device-host-ptr-fault":
        "3e6339e95777410ee2490866f4ebae4dd61b016b9d6af3fd676285ab3d1bfc51",
    "edge-do-while-continue":
        "30ebc07ce342d31a38843e683180b467867cc159db6aa0a89ae67d8779989c96",
    "edge-exit-and-assert":
        "600624c92103c970deb811df4a07bd1e08f1a307fbae70c9a5aad26d8c38c141",
    "edge-float-math":
        "50eb75ae5c2056329cc80c2b814ef3f2f26d12962a5fa61feeb0b26bfae667d8",
    "edge-host-device-ptr-fault":
        "c5cc4b8e7e527a19c8b0147b42473f9882efac4e747875cd0645e576b948e500",
    "edge-host-parallel-return":
        "828ad0a73954a0401c82e391dd6d34d30217805d5b88d78614d19bbe74c48719",
    "edge-host-stack-array":
        "69d4e9463928d2318cc065ed5359e583a0142c8a4b54af6e4bcb85efd03dbf0f",
    "edge-int-truncation-everywhere":
        "a82ced08613d1408e33b16c906de2e9cc481441cf66d576c75da636d93be7b60",
    "edge-kernel-grid-stride-device-fn":
        "2cc576cb9ffacbf87b0953594cf18f85e1d80546c7d6d0221a4a3bd4d4f60868",
    "edge-kernel-grid-stride-device-fn-kill":
        "31a4750268576950d6cf75e86316b1d94db641baac3252ce8140e0ba955b77db",
    "edge-kernel-return-in-loop":
        "f12579a2b6c437d53ff56bea0f6ea2f8d85cbe096b101d84df98aa25cb30db29",
    "edge-logic-side-effects":
        "356577bd900e517fe9ad98388d2eae3aca5215757091d33a684e0f8d0870614a",
    "edge-logic-side-effects-kill":
        "356577bd900e517fe9ad98388d2eae3aca5215757091d33a684e0f8d0870614a",
    "edge-memcpy-memset-calloc":
        "725da2dc22ce9e15238e9ff8d776fdede26d26691e66b59a4b6ac0894fe6d89d",
    "edge-nested-omp-reduction-int":
        "5cd099153e7ccf14b71ac991952d034c9a2e51edfe52b6cee17b461abf04bf4e",
    "edge-omp-nest-return-break-continue":
        "8215dbac723f61b033cdfa969593e2c4deee7300e4c0e317854b86aa5ee9c10a",
    "edge-omp-nest-return-break-continue-kill":
        "8215dbac723f61b033cdfa969593e2c4deee7300e4c0e317854b86aa5ee9c10a",
    "edge-omp-noncanonical":
        "c97fd6603f040b1106ff6a5034154051ca4b9b0a13175d875e8a2ba422bcd985",
    "edge-omp-target-data-nested":
        "abd09cbc9c639a92c0d3e0ca24e66b69ae2e6a69e028909d86dd73bf83fa551d",
    "edge-omp-unmapped-host-fault":
        "285b18cc758a7d544535b26b3e171b04a553560c4b795d98b4fc7668cd9c1f9b",
    "edge-pointer-arith-mix":
        "a75ad63445bed996865037a5a72385c30ad68f1889d84a3e0e2074639b4d6332",
    "edge-printf-missing":
        "7c0c035b60d9b2e50469c5a0174b8b8c65b1593be7f04865a7a25ba651ad1cca",
    "edge-rand-srand":
        "f2da2d37720e7da58fb63741212b3cb7aa1895eed9df7bf1a4ac6379547f5909",
    "edge-step-kill-in-call":
        "8c237158508a07f98ce6c6a8542d4787096584568392695d40aedc2231905cb8",
    "edge-step-kill-in-call-kill":
        "a442f1d8ae20d582d1bcd334433edc2d12384cf9814ac1fdbf03a35a76e84a49",
    "edge-unbound-in-dead-branch":
        "732da26a692980e637fa9ce74249d6fa9820280cf52b33555892a4fd03a049d7",
    "edge-use-after-free-and-double":
        "775f019ba69304580e75109afca2d80b9bc71e4163431a87df1ba92fe751dd06",
    "edge-void-ptr-flow":
        "69ee7b6af7bd0c16b1536b9ad7589f4a9fe804e07c2e578c6aee427a0f3c3227",
    "flat-kernel":
        "19718729d0569916b493e7e3e9add69170d5a43df8abcd275f8d917b31b3eabf",
    "flat-kernel-loop-kill":
        "e153a75ade4dfb10cfdab89ff7d8a92d9b4a1c8da942dc9ea56d9d4665fb9278",
    "flat-kernel-step-kill":
        "4e0412a75c683cdc7f7eee46a63635b46916f69a1b996c9483a9b51abf2845a9",
    "host-div-zero":
        "341d51fbe0d6bd4be2a07eed289e4f4a6cfef3ad911062cb527792065ea8f39b",
    "host-loop-kill":
        "d9fe4c32ef197943e7b83a58898d251851971e3060a94eb4b5d5e15be6dd3dbd",
    "host-mix":
        "1618099b37900729f5733d9abfd07e4784fc45dca3de53cf949d04efffef645f",
    "host-parallel-reduction":
        "20bac9f0dbf9e40fb4abc913b1ffb5308ea28006334cad7504240ff5a0f616bc",
    "host-segfault":
        "d8817dc6bcd019663851dc9a6ce499ce6f32511627ff2b9b767b62a23e7fa9db",
    "omp-offload-loop-kill":
        "6af5a0935458b30ffa9c221f43442c57997e9d162a4f906fe127102abeb2b0c8",
    "omp-offload-mix":
        "9f4f2cad780231ffbcc230210cc8e70125dca4c166744399015270a76d96b215",
    "omp-target-fault":
        "20972dd46f382a0f3835fba0befcc50940135f98a30b56a98499e117b82ae31b",
    "omp-target-serial":
        "ec60826aa6b2dc4fc9fd0e291e82aa3f688fda5dbc3a8d7314f1b346e0ad1190",
    "omp-target-serial-kill":
        "73b6cc91852fdc322781e57f04f0bd59858908708f7903bc2423f0d118f960ac",
}

GOLDEN_SLICE_RUNS = 27
GOLDEN_SLICE_FAULTED = 9
GOLDEN_SLICE_DIGEST = (
    "b7cd20543c664c2c449cee8f4f437f4eb0b04a23f539de9ee1c1438c4d6d94cf"
)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_small_program_guest_cost_is_pinned(name):
    dialect, text, argv, max_steps = PROGRAMS[name]
    result = run_program(text, dialect, argv, max_steps)
    assert digest(execution_record(result)) == PROGRAM_DIGESTS[name], (
        execution_record(result)
    )


def test_every_golden_slice_execution_is_pinned(monkeypatch):
    records = []
    original = Executor.run

    def recording(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        records.append(execution_record(result))
        return result

    monkeypatch.setattr(Executor, "run", recording)
    ExperimentRunner(jobs=1).run(**GOLDEN_SLICE)
    assert len(records) == GOLDEN_SLICE_RUNS
    faulted = [r for r in records if "illegal memory access" in r[1]]
    assert len(faulted) == GOLDEN_SLICE_FAULTED
    assert digest(records) == GOLDEN_SLICE_DIGEST
