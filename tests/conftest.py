"""Shared pytest fixtures."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.minilang.source import Dialect, SourceFile
from repro.telemetry.log import get_logger

# Property tests draw the same examples on every tier-1 run and carry no
# wall-clock deadline; ``--hypothesis-profile=explore`` draws fresh random
# examples under Hypothesis' default deadline (a CI step runs them so).
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("explore")
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def restore_namespace_logger():
    """Undo what ``repro.telemetry.log.configure()`` does to the ``repro``
    logger: it turns propagation off and attaches a handler to the stderr
    of the moment, which capsys closes after the test.  Left behind, both
    break later tests that read records with ``caplog``."""
    root = get_logger()
    saved = list(root.handlers), root.level, root.propagate
    yield
    root.handlers[:] = saved[0]
    root.setLevel(saved[1])
    root.propagate = saved[2]


@pytest.fixture
def cuda_vecadd_source() -> SourceFile:
    text = r"""
__global__ void add(float* a, float* b, float* c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    c[i] = a[i] + b[i];
  }
}

int main(int argc, char** argv) {
  int n = 256;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* c = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {
    a[i] = i * 1.0f;
    b[i] = i * 2.0f;
  }
  float* d_a;
  float* d_b;
  float* d_c;
  cudaMalloc(&d_a, n * sizeof(float));
  cudaMalloc(&d_b, n * sizeof(float));
  cudaMalloc(&d_c, n * sizeof(float));
  cudaMemcpy(d_a, a, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(d_b, b, n * sizeof(float), cudaMemcpyHostToDevice);
  add<<<(n + 127) / 128, 128>>>(d_a, d_b, d_c, n);
  cudaDeviceSynchronize();
  cudaMemcpy(c, d_c, n * sizeof(float), cudaMemcpyDeviceToHost);
  double checksum = 0.0;
  for (int i = 0; i < n; i++) {
    checksum += c[i];
  }
  printf("checksum %.4f\n", checksum);
  cudaFree(d_a);
  cudaFree(d_b);
  cudaFree(d_c);
  free(a);
  free(b);
  free(c);
  return 0;
}
"""
    return SourceFile("vecadd.cu", text, Dialect.CUDA)


@pytest.fixture
def omp_vecadd_source() -> SourceFile:
    text = r"""
int main(int argc, char** argv) {
  int n = 256;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* c = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {
    a[i] = i * 1.0f;
    b[i] = i * 2.0f;
  }
  #pragma omp target teams distribute parallel for map(to: a[0:n]) map(to: b[0:n]) map(from: c[0:n])
  for (int i = 0; i < n; i++) {
    c[i] = a[i] + b[i];
  }
  double checksum = 0.0;
  for (int i = 0; i < n; i++) {
    checksum += c[i];
  }
  printf("checksum %.4f\n", checksum);
  free(a);
  free(b);
  free(c);
  return 0;
}
"""
    return SourceFile("vecadd.cpp", text, Dialect.OMP)
