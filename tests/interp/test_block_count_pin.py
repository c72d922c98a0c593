"""Pin of run outcomes where generated code settles guest cost by block.

Launches, ``target`` loop nests, host ``parallel`` regions and
``__device__`` functions charge their counts per straight-line block, and
host loops settle pending ops on their fault and exit paths
(:mod:`repro.interp.codegen`).  These programs fault, get killed or jump
out in the middle of such blocks, and each runs at the default
:class:`~repro.interp.Limits` and at two small step budgets.  Every record
has the shape of the guest-cost pin's
(:func:`tests.interp.test_guest_cost_pin.execution_record`): stdout,
stderr, exit code, ``steps_used``, host counters, barrier waits, and every
event with its counters.  ``block_count_pin.json`` holds the records; they
were captured from code that settled counts at every flush point, before
blocks.  Re-capture it only for a deliberate change of guest cost::

    PYTHONPATH=src python -m tests.interp.test_block_count_pin
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.minilang.source import Dialect
from tests.interp.test_guest_cost_pin import execution_record, run_program

PIN = Path(__file__).with_name("block_count_pin.json")

#: A flat kernel: thread ``bad`` of the second launch stores out of range
#: after its loads, branches and loop.
FLAT = r"""
__global__ void flat(float* a, float* b, int n, int bad) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  float x = a[i] * 2.0f + 1.0f;
  if (i < n && x > 2.0f) { x = x + b[i]; }
  for (int k = 0; k < 4; k++) { x = x * 0.5f + a[i]; if (k == 2) { x = x - 1.0f; } }
  b[i + (i == bad ? 100 : 0)] = x;
  a[i] = x - 1.0f;
}
int main(int argc, char** argv) {
  int bad = atoi(argv[1]);
  int n = 24;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { h[i] = i * 0.25f; }
  float* da; float* db;
  cudaMalloc(&da, n * sizeof(float));
  cudaMalloc(&db, n * sizeof(float));
  cudaMemcpy(da, h, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(db, h, n * sizeof(float), cudaMemcpyHostToDevice);
  flat<<<3, 8>>>(da, db, n, -1);
  flat<<<3, 8>>>(da, db, n, bad);
  cudaMemcpy(h, db, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.3f %.3f\n", h[0], h[n - 1]);
  return 0;
}
"""

#: A slow (atomics) kernel: thread ``bad`` updates a bin out of range.
SLOW = r"""
__global__ void hist(int* data, int* bins, float* total, int n, int bad) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= n) return;
  int v = data[i];
  atomicAdd(&bins[v % 4], 1);
  for (int k = 0; k < v % 3; k++) { atomicAdd(total, 0.5f * k); }
  atomicMax(&bins[4 + (i == bad ? 50 : 0)], v);
}
int main(int argc, char** argv) {
  int bad = atoi(argv[1]);
  int n = 20;
  int* h = (int*)malloc(n * sizeof(int));
  for (int i = 0; i < n; i++) { h[i] = (i * 7) % 11; }
  int* d; int* bins; float* total;
  cudaMalloc(&d, n * sizeof(int));
  cudaMalloc(&bins, 5 * sizeof(int));
  cudaMalloc(&total, sizeof(float));
  cudaMemset(bins, 0, 5 * sizeof(int));
  cudaMemset(total, 0, sizeof(float));
  cudaMemcpy(d, h, n * sizeof(int), cudaMemcpyHostToDevice);
  hist<<<3, 8>>>(d, bins, total, n, -1);
  hist<<<3, 8>>>(d, bins, total, n, bad);
  int hb[5]; float t[1];
  cudaMemcpy(hb, bins, 5 * sizeof(int), cudaMemcpyDeviceToHost);
  cudaMemcpy(t, total, sizeof(float), cudaMemcpyDeviceToHost);
  printf("%d %d %d %d %d %.1f\n", hb[0], hb[1], hb[2], hb[3], hb[4], t[0]);
  return 0;
}
"""

#: A barrier kernel: block ``bad`` stores its sum out of range.
BARRIER = r"""
__global__ void bsum(float* in, float* out, int n, int bad) {
  __shared__ float tile[8];
  int t = threadIdx.x;
  int i = blockIdx.x * blockDim.x + t;
  tile[t] = i < n ? in[i] * 2.0f : 0.0f;
  __syncthreads();
  for (int s = 4; s > 0; s = s / 2) {
    if (t < s) { tile[t] += tile[t + s]; }
    __syncthreads();
  }
  if (t == 0) { out[blockIdx.x + (blockIdx.x == bad ? 9 : 0)] = tile[0] + 0.5f; }
}
int main(int argc, char** argv) {
  int bad = atoi(argv[1]);
  int n = 27;
  float* h = (float*)malloc(32 * sizeof(float));
  for (int i = 0; i < n; i++) { h[i] = i % 5 - 1.5f; }
  float* din; float* dout;
  cudaMalloc(&din, n * sizeof(float));
  cudaMalloc(&dout, 4 * sizeof(float));
  cudaMemcpy(din, h, n * sizeof(float), cudaMemcpyHostToDevice);
  bsum<<<4, 8>>>(din, dout, n, -1);
  bsum<<<4, 8>>>(din, dout, n, bad);
  cudaMemcpy(h, dout, 4 * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.2f %.2f %.2f %.2f\n", h[0], h[1], h[2], h[3]);
  return 0;
}
"""

#: A ``__device__`` function with branches, a loop and a return in it;
#: thread ``bad`` makes it read out of range.
DEVICE = r"""
__device__ float mix(float* a, int i, int bad) {
  float s = a[i] * 0.5f;
  if (i > 0) { s += a[i - 1]; }
  for (int k = 0; k < 3; k++) {
    if (k == i % 4) { return s + k; }
    s = s * 2.0f + 1.0f;
  }
  return s + a[i + (i == bad ? 64 : 0)];
}
__global__ void k(float* a, float* out, int n, int bad) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { out[i] = mix(a, i, bad) * 2.0f; }
}
int main(int argc, char** argv) {
  int bad = atoi(argv[1]);
  int n = 16;
  float* h = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { h[i] = i * 1.5f; }
  float* da; float* dout;
  cudaMalloc(&da, n * sizeof(float));
  cudaMalloc(&dout, n * sizeof(float));
  cudaMemcpy(da, h, n * sizeof(float), cudaMemcpyHostToDevice);
  k<<<2, 8>>>(da, dout, n, -1);
  k<<<2, 8>>>(da, dout, n, bad);
  cudaMemcpy(h, dout, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.2f %.2f %.2f\n", h[0], h[7], h[15]);
  return 0;
}
"""

#: A kernel thread returns from inside its loop (``_ThreadReturn``).
THREAD_RETURN = r"""
__global__ void early(int* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int s = 0;
  for (int k = 0; k < n; k++) {
    s += a[k] * 2;
    if (s > i * 3) { a[n + i] = k; return; }
    s = s - 1;
  }
  a[n + i] = -1;
}
int main() {
  int n = 12;
  int* h = (int*)malloc(2 * n * sizeof(int));
  for (int i = 0; i < 2 * n; i++) { h[i] = i % 4; }
  int* d;
  cudaMalloc(&d, 2 * n * sizeof(int));
  cudaMemcpy(d, h, 2 * n * sizeof(int), cudaMemcpyHostToDevice);
  early<<<2, 6>>>(d, n);
  cudaMemcpy(h, d, 2 * n * sizeof(int), cudaMemcpyDeviceToHost);
  for (int i = n; i < 2 * n; i++) { printf("%d ", h[i]); }
  printf("\n");
  return 0;
}
"""

#: ``continue`` in a ``target`` nest body, a ``collapse(2)`` nest, and a
#: ``target`` loop inside a host loop; argument 1 makes the last nest read
#: out of range.
TARGET = r"""
int main(int argc, char** argv) {
  int bad = atoi(argv[1]);
  int n = 10;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* m = (float*)malloc(n * n * sizeof(float));
  for (int i = 0; i < n; i++) { a[i] = i * 0.5f; b[i] = 1.0f; }
  for (int i = 0; i < n * n; i++) { m[i] = i % 3; }
  #pragma omp target teams distribute parallel for map(to: a[0:n]) map(tofrom: b[0:n])
  for (int i = 0; i < n; i++) {
    float x = a[i] * 2.0f + b[i];
    if (i % 3 == 0) continue;
    b[i] = x > 3.0f ? x - a[i] : x;
  }
  #pragma omp target teams distribute parallel for collapse(2) map(tofrom: m[0:n*n]) map(to: a[0:n])
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) { m[i * n + j] = m[i * n + j] * a[j] + i; }
  }
  for (int r = 0; r < 3; r++) {
    #pragma omp target teams distribute parallel for map(tofrom: b[0:n]) map(to: a[0:n])
    for (int i = 0; i < n; i++) { b[i] = b[i] * 0.5f + a[i + (r == 2 && bad == 1 ? n : 0)]; }
  }
  printf("%.3f %.3f %.3f\n", b[1], b[n - 1], m[n * n - 1]);
  return 0;
}
"""

#: ``return`` and ``break`` out of a host ``parallel`` region
#: (``_RegionExit``).
REGION_EXIT = r"""
int find(float* v, int n, float lim) {
  float s = 0.0f;
  #pragma omp parallel for reduction(+: s)
  for (int i = 0; i < n; i++) { s += v[i] * 2.0f; if (v[i] > lim) return i; s = s - 1.0f; }
  printf("s=%.2f\n", s);
  return -1;
}
int main() {
  float v[8];
  for (int i = 0; i < 8; i++) { v[i] = 1.0f + i; }
  int hits = 0;
  for (int r = 0; r < 4; r++) {
    #pragma omp parallel
    {
      hits += r;
      if (r == 2) break;
      hits = hits * 2;
    }
  }
  printf("%d %d %d\n", find(v, 8, 5.5f), find(v, 3, 9.0f), hits);
  return 0;
}
"""

#: ``&&``, ``||`` and ternary arms in a kernel, ``sqrtf`` of negative
#: values (NaN), and a math builtin whose argument raises as it converts a
#: NaN, in the kernel and in a ``__device__`` function it calls.
LOGIC_MATH = r"""
__device__ int trunc_of(float x, int k) {
  int s = k * 3;
  if (s > 4) { s = s - 1; }
  return (int)x + s;
}
__global__ void logic(float* a, int* f, int n) {
  int i = threadIdx.x;
  int c = (i < n && a[i] > 1.0f) || (i % 2 == 0 && f[i] > 0);
  float r = c ? sqrtf(a[i] - 3.0f) : a[i] * 2.0f;
  float q = sqrtf(a[i] * 2.0f + (int)(r * 0.0f / 0.0f));
  float w = sqrtf(1.0f + trunc_of(i % 3 == 0 ? a[i] / 0.0f * 0.0f : a[i], i));
  f[i] = c + (r > 0.0f ? 1 : 2) + (q > 0.0f) + (w > 1.0f ? 4 : 8);
  a[i] = r;
}
int main() {
  int n = 12;
  float* h = (float*)malloc(n * sizeof(float));
  int* hf = (int*)malloc(n * sizeof(int));
  for (int i = 0; i < n; i++) { h[i] = i * 0.75f - 1.0f; hf[i] = i % 3 - 1; }
  float* da; int* df;
  cudaMalloc(&da, n * sizeof(float));
  cudaMalloc(&df, n * sizeof(int));
  cudaMemcpy(da, h, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(df, hf, n * sizeof(int), cudaMemcpyHostToDevice);
  logic<<<1, 12>>>(da, df, n);
  cudaMemcpy(hf, df, n * sizeof(int), cudaMemcpyDeviceToHost);
  for (int i = 0; i < n; i++) { printf("%d ", hf[i]); }
  printf("\n");
  return 0;
}
"""

#: Host loops with ``break``, with ``continue``, with a bounds fault after
#: counted ops in the same iteration (argument 1), with a NULL dereference
#: (argument 2), and a ``while`` and a ``do`` loop.
HOST_LOOPS = r"""
int main(int argc, char** argv) {
  int mode = atoi(argv[1]);
  int n = 12;
  int* a = (int*)malloc(n * sizeof(int));
  int* z = NULL;
  int s = 0;
  for (int i = 0; i < n; i++) { a[i] = i * 3 + 1; }
  for (int i = 0; i < n; i++) { if (a[i] > 20) break; s += a[i] * 2; }
  for (int i = 0; i < n; i++) { if (i % 3 == 1) continue; s += a[i] - i; }
  int lim = mode == 1 ? n + 2 : n;
  for (int i = 0; i < lim; i++) { s = s + i * 2 + 1; s += a[i]; }
  if (mode == 2) { for (int i = 0; i < n; i++) { s += i * 5; s += z[i]; } }
  int j = 0;
  while (j < n && a[j] < 30) { s += a[j] % 7; j++; }
  do { j = j - 2; if (j % 4 == 0) continue; s = s + j; } while (j > 0);
  printf("%d %d\n", s, j);
  return 0;
}
"""

#: name -> (dialect, source, argv, two small step budgets)
PROGRAMS = {
    "flat": (Dialect.CUDA, FLAT, ("-1",), (97, 211)),
    "flat-fault": (Dialect.CUDA, FLAT, ("13",), (97, 211)),
    "slow": (Dialect.CUDA, SLOW, ("-1",), (53, 89)),
    "slow-fault": (Dialect.CUDA, SLOW, ("17",), (53, 89)),
    "barrier": (Dialect.CUDA, BARRIER, ("-1",), (151, 389)),
    "barrier-fault": (Dialect.CUDA, BARRIER, ("2",), (151, 389)),
    "device": (Dialect.CUDA, DEVICE, ("-1",), (71, 131)),
    "device-fault": (Dialect.CUDA, DEVICE, ("11",), (71, 131)),
    "thread-return": (Dialect.CUDA, THREAD_RETURN, (), (53, 97)),
    "target": (Dialect.OMP, TARGET, ("0",), (97, 211)),
    "target-fault": (Dialect.OMP, TARGET, ("1",), (97, 211)),
    "region-exit": (Dialect.OMP, REGION_EXIT, (), (9, 17)),
    "logic-math": (Dialect.CUDA, LOGIC_MATH, (), (17, 37)),
    "host-loops": (Dialect.C, HOST_LOOPS, ("0",), (23, 41)),
    "host-loops-bounds": (Dialect.C, HOST_LOOPS, ("1",), (23, 41)),
    "host-loops-null": (Dialect.C, HOST_LOOPS, ("2",), (23, 41)),
}


def records(name: str) -> list:
    """The program's records: default limits, then each small budget."""
    dialect, text, argv, budgets = PROGRAMS[name]
    return [execution_record(run_program(text, dialect, argv, max_steps=b))
            for b in (None,) + budgets]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_block_counts_are_pinned(name):
    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    assert records(name) == pinned[name]


def test_pin_covers_every_program_and_its_kills():
    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(PROGRAMS)
    runs = [r for name in PROGRAMS for r in pinned[name]]
    killed = [r for r in runs if "step budget" in r[1]]
    faulted = [r for r in runs if r[2] != 0 and "step budget" not in r[1]]
    # Every program is killed at its smallest budget, and the faulting
    # variants fault when they run to the end.
    assert len(killed) >= len(PROGRAMS)
    assert len(faulted) >= 7


def main() -> None:  # pragma: no cover - re-captures the pin
    pinned = {name: records(name) for name in sorted(PROGRAMS)}
    PIN.write_text(json.dumps(pinned, indent=1, allow_nan=True) + "\n", encoding="utf-8")
    print(f"wrote {PIN} ({len(pinned)} programs)")


if __name__ == "__main__":  # pragma: no cover
    main()
