#!/usr/bin/env python3
"""Translate a program that is NOT in the suite: a SAXPY-with-reduction
kernel, defined inline.  Shows the public pipeline API directly (no
experiment harness): you provide source + reference, LASSI does the rest.
"""

from repro.llm.profiles import CellPlan
from repro.llm.simulated import SimulatedLLM
from repro.minilang.source import Dialect
from repro.pipeline import build_pipeline

OMP_SOURCE = r"""
// saxpy with an L2-norm check, OpenMP target offload
int main(int argc, char** argv) {
  int n = 2048;
  float a = 2.5f;
  float* x = (float*)malloc(n * sizeof(float));
  float* y = (float*)malloc(n * sizeof(float));
  srand(11);
  for (int i = 0; i < n; i++) {
    x[i] = (rand() % 100) * 0.01f;
    y[i] = (rand() % 100) * 0.01f;
  }
  double norm = 0.0;
  #pragma omp target data map(tofrom: y[0:n]) map(to: x[0:n])
  {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) {
      y[i] = a * x[i] + y[i];
    }
    #pragma omp target teams distribute parallel for reduction(+: norm)
    for (int i = 0; i < n; i++) {
      norm += y[i] * y[i];
    }
  }
  printf("norm %.4f\n", norm);
  free(x);
  free(y);
  return 0;
}
"""

CUDA_REFERENCE = r"""
// saxpy with an L2-norm check, CUDA
__global__ void saxpy(float* x, float* y, float a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    y[i] = a * x[i] + y[i];
  }
}

__global__ void norm2(float* y, double* out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    atomicAdd(&out[0], y[i] * y[i]);
  }
}

int main(int argc, char** argv) {
  int n = 2048;
  float a = 2.5f;
  float* x = (float*)malloc(n * sizeof(float));
  float* y = (float*)malloc(n * sizeof(float));
  srand(11);
  for (int i = 0; i < n; i++) {
    x[i] = (rand() % 100) * 0.01f;
    y[i] = (rand() % 100) * 0.01f;
  }
  float* d_x;
  float* d_y;
  double* d_norm;
  cudaMalloc(&d_x, n * sizeof(float));
  cudaMalloc(&d_y, n * sizeof(float));
  cudaMalloc(&d_norm, sizeof(double));
  cudaMemcpy(d_x, x, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(d_y, y, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemset(d_norm, 0, sizeof(double));
  saxpy<<<(n + 255) / 256, 256>>>(d_x, d_y, a, n);
  norm2<<<(n + 255) / 256, 256>>>(d_y, d_norm, n);
  cudaDeviceSynchronize();
  double* h_norm = (double*)malloc(sizeof(double));
  cudaMemcpy(h_norm, d_norm, sizeof(double), cudaMemcpyDeviceToHost);
  printf("norm %.4f\n", h_norm[0]);
  cudaFree(d_x);
  cudaFree(d_y);
  cudaFree(d_norm);
  free(x);
  free(y);
  free(h_norm);
  return 0;
}
"""


def main() -> int:
    llm = SimulatedLLM("codestral", Dialect.OMP, Dialect.CUDA, plan=CellPlan())
    pipeline = build_pipeline(llm, Dialect.OMP, Dialect.CUDA)
    result = pipeline.run(OMP_SOURCE, reference_target_code=CUDA_REFERENCE)
    print(f"status: {result.status}, verified: {result.verified}")
    print(f"Sim-T {result.sim_t:.2f}  Sim-L {result.sim_l:.2f}  "
          f"Ratio {result.ratio:.3f}")
    print("\n--- generated CUDA ---")
    print(result.generated_code)
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
