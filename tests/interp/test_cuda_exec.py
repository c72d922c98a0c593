"""Tests for simulated CUDA execution: launches, memory spaces, atomics,
shared memory + barriers, and profile events."""

from __future__ import annotations

from repro.minilang.source import Dialect
from tests.interp.helpers import run_source


def run_cuda(text: str, argv=None, **kw):
    return run_source(text, Dialect.CUDA, argv=argv, **kw)


class TestKernelLaunch:
    def test_vecadd_end_to_end(self, cuda_vecadd_source):
        out = run_source(cuda_vecadd_source.text, Dialect.CUDA)
        assert out.ok, (out.error, out.error_detail)
        # sum of a[i]+b[i] = sum 3i for i in 0..255 = 3*255*256/2
        assert out.stdout == "checksum 97920.0000\n"

    def test_thread_geometry(self):
        out = run_cuda(
            "__global__ void k(int* p) {\n"
            "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
            "  p[i] = blockIdx.x * 1000 + threadIdx.x;\n"
            "}\n"
            "int main() {\n"
            "  int* d;\n"
            "  cudaMalloc(&d, 8 * sizeof(int));\n"
            "  k<<<2, 4>>>(d);\n"
            "  int* h = (int*)malloc(8 * sizeof(int));\n"
            "  cudaMemcpy(h, d, 8 * sizeof(int), cudaMemcpyDeviceToHost);\n"
            '  printf("%d %d %d %d\\n", h[0], h[3], h[4], h[7]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "0 3 1000 1003\n"

    def test_grid_stride_loop(self):
        out = run_cuda(
            "__global__ void k(int* p, int n) {\n"
            "  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n; i += blockDim.x * gridDim.x) {\n"
            "    p[i] = i;\n"
            "  }\n"
            "}\n"
            "int main() {\n"
            "  int n = 100;\n"
            "  int* d;\n"
            "  cudaMalloc(&d, n * sizeof(int));\n"
            "  k<<<2, 16>>>(d, n);\n"
            "  int* h = (int*)malloc(n * sizeof(int));\n"
            "  cudaMemcpy(h, d, n * sizeof(int), cudaMemcpyDeviceToHost);\n"
            "  int s = 0;\n"
            "  for (int i = 0; i < n; i++) s += h[i];\n"
            '  printf("%d\\n", s);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "4950\n"

    def test_invalid_block_size(self):
        out = run_cuda(
            "__global__ void k() {}\n"
            "int main() { k<<<1, 2048>>>(); return 0; }"
        )
        assert "invalid configuration argument" in out.error

    def test_zero_grid(self):
        out = run_cuda(
            "__global__ void k() {}\n"
            "int main() { k<<<0, 32>>>(); return 0; }"
        )
        assert "invalid configuration argument" in out.error

    def test_device_function_call(self):
        out = run_cuda(
            "__device__ float square(float x) { return x * x; }\n"
            "__global__ void k(float* p) { p[threadIdx.x] = square(threadIdx.x); }\n"
            "int main() {\n"
            "  float* d;\n"
            "  cudaMalloc(&d, 4 * sizeof(float));\n"
            "  k<<<1, 4>>>(d);\n"
            "  float* h = (float*)malloc(4 * sizeof(float));\n"
            "  cudaMemcpy(h, d, 4 * sizeof(float), cudaMemcpyDeviceToHost);\n"
            '  printf("%.0f %.0f\\n", h[2], h[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "4 9\n"

    def test_kernel_printf(self):
        out = run_cuda(
            '__global__ void k() { printf("t%d\\n", threadIdx.x); }\n'
            "int main() { k<<<1, 3>>>(); cudaDeviceSynchronize(); return 0; }"
        )
        assert out.stdout == "t0\nt1\nt2\n"

    def test_inner_declaration_hides_a_kernel_local_only_in_its_block(self):
        out = run_cuda(
            "__global__ void k(float* a) {\n"
            "  int i = threadIdx.x;\n"
            "  float v = a[i];\n"
            "  { float v = 2.0f; a[i] = v; }\n"
            "  a[i] = a[i] + v;\n"
            "}\n"
            "int main() {\n"
            "  float h[4];\n"
            "  for (int i = 0; i < 4; i++) { h[i] = 1.0f; }\n"
            "  float* d;\n"
            "  cudaMalloc(&d, 4 * sizeof(float));\n"
            "  cudaMemcpy(d, h, 4 * sizeof(float), cudaMemcpyHostToDevice);\n"
            "  k<<<1, 4>>>(d);\n"
            "  cudaMemcpy(h, d, 4 * sizeof(float), cudaMemcpyDeviceToHost);\n"
            '  printf("%.1f %.1f\\n", h[0], h[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "3.0 3.0\n"

    def test_inner_declaration_leaves_a_kernel_parameter_for_later_threads(self):
        # Thread 0 declares its own NULL 'a'; every thread still writes
        # through the parameter.
        out = run_cuda(
            "__global__ void k(float* a, int n) {\n"
            "  int i = threadIdx.x;\n"
            "  if (i == 0) { float* a = NULL; }\n"
            "  if (i < n) { a[i] = 1.0f; }\n"
            "}\n"
            "int main() {\n"
            "  float* d;\n"
            "  cudaMalloc(&d, 4 * sizeof(float));\n"
            "  k<<<1, 4>>>(d, 4);\n"
            "  float h[4];\n"
            "  cudaMemcpy(h, d, 4 * sizeof(float), cudaMemcpyDeviceToHost);\n"
            '  printf("%.1f %.1f %.1f %.1f\\n", h[0], h[1], h[2], h[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.error is None
        assert out.stdout == "1.0 1.0 1.0 1.0\n"


class TestMemorySpaces:
    def test_host_deref_of_device_pointer_segfaults(self):
        out = run_cuda(
            "int main() {\n"
            "  float* d;\n"
            "  cudaMalloc(&d, 16);\n"
            "  d[0] = 1.0f;\n"
            "  return 0;\n"
            "}"
        )
        assert "Segmentation fault" in out.error

    def test_kernel_deref_of_host_pointer_illegal_access(self):
        out = run_cuda(
            "__global__ void k(float* p) { p[0] = 1.0f; }\n"
            "int main() {\n"
            "  float* h = (float*)malloc(16);\n"
            "  k<<<1, 1>>>(h);\n"
            "  return 0;\n"
            "}"
        )
        assert "illegal memory access" in out.error

    def test_kernel_oob_is_illegal_access(self):
        out = run_cuda(
            "__global__ void k(float* p, int n) {\n"
            "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
            "  p[i] = 1.0f;\n"  # missing bounds guard
            "}\n"
            "int main() {\n"
            "  float* d;\n"
            "  cudaMalloc(&d, 100 * sizeof(float));\n"
            "  k<<<1, 128>>>(d, 100);\n"
            "  return 0;\n"
            "}"
        )
        assert "illegal memory access" in out.error

    def test_missing_h2d_copy_gives_zeros(self):
        out = run_cuda(
            "__global__ void k(float* p, int n) {\n"
            "  int i = threadIdx.x;\n"
            "  if (i < n) p[i] = p[i] * 2.0f;\n"
            "}\n"
            "int main() {\n"
            "  int n = 4;\n"
            "  float* h = (float*)malloc(n * sizeof(float));\n"
            "  for (int i = 0; i < n; i++) h[i] = 5.0f;\n"
            "  float* d;\n"
            "  cudaMalloc(&d, n * sizeof(float));\n"
            "  k<<<1, 4>>>(d, n);\n"
            "  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);\n"
            '  printf("%.1f\\n", h[0]);\n'
            "  return 0;\n"
            "}"
        )
        # Device memory starts zeroed; result is wrong (0) but no crash.
        assert out.ok
        assert out.stdout == "0.0\n"

    def test_wrong_memcpy_direction_is_silent_noop(self):
        out = run_cuda(
            "int main() {\n"
            "  int n = 4;\n"
            "  float* h = (float*)malloc(n * sizeof(float));\n"
            "  h[0] = 7.0f;\n"
            "  float* d;\n"
            "  cudaMalloc(&d, n * sizeof(float));\n"
            "  cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyDeviceToHost);\n"
            "  float* h2 = (float*)malloc(n * sizeof(float));\n"
            "  cudaMemcpy(h2, d, n * sizeof(float), cudaMemcpyDeviceToHost);\n"
            '  printf("%.1f\\n", h2[0]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.ok
        assert out.stdout == "0.0\n"

    def test_cuda_free_and_double_free(self):
        out = run_cuda(
            "int main() { float* d; cudaMalloc(&d, 16); cudaFree(d); cudaFree(d); return 0; }"
        )
        assert out.error is not None

    def test_cuda_free_of_an_interior_pointer_is_an_invalid_argument(self):
        # As ``cudaFree`` of a host pointer: the error, and no free.
        out = run_cuda(
            "int main() { float* d; cudaMalloc(&d, 4 * sizeof(float));\n"
            'int rc = cudaFree(d + 1); printf("%d\\n", rc); return 0; }'
        )
        assert (out.stdout, out.error, out.exit_code) == (
            "", "CUDA error: invalid argument", 1)

    def test_cuda_memset(self):
        out = run_cuda(
            "int main() {\n"
            "  int n = 4;\n"
            "  float* d;\n"
            "  cudaMalloc(&d, n * sizeof(float));\n"
            "  cudaMemset(d, 0, n * sizeof(float));\n"
            "  float* h = (float*)malloc(n * sizeof(float));\n"
            "  h[1] = 9.0f;\n"
            "  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);\n"
            '  printf("%.1f\\n", h[1]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "0.0\n"

    @staticmethod
    def _memset_on(setup: str, nbytes: str):
        return run_cuda(
            "int main() {\n"
            f"  {setup}\n"
            f"  int rc = cudaMemset(d, 0, {nbytes});\n"
            '  printf("%d %.1f\\n", rc, d[1]);\n'
            "  return 0;\n"
            "}"
        )

    def test_cuda_memset_past_the_end_is_an_illegal_access(self):
        out = self._memset_on(
            "float* d; cudaMalloc(&d, 4 * sizeof(float));", "1000"
        )
        assert out.error == (
            "CUDA error: an illegal memory access was encountered"
        )
        assert out.error_detail == (
            "cudaMemset of 1000 bytes overruns buffer (len 4)"
        )

    def test_cuda_memset_of_a_negative_count_is_an_illegal_access(self):
        out = self._memset_on(
            "float* d; cudaMalloc(&d, 4 * sizeof(float));", "-8"
        )
        assert "illegal memory access" in out.error
        assert out.error_detail == (
            "cudaMemset of -8 bytes overruns buffer (len 4)"
        )

    def test_cuda_memset_on_a_freed_buffer_is_an_illegal_access(self):
        out = self._memset_on(
            "float* d; cudaMalloc(&d, 4 * sizeof(float)); cudaFree(d);",
            "4 * sizeof(float)",
        )
        assert "illegal memory access" in out.error
        assert out.error_detail == "cudaMemset on a freed buffer"

    def test_cuda_memset_on_a_host_pointer_writes_nothing(self):
        out = self._memset_on(
            "float* d = (float*)malloc(4 * sizeof(float)); d[1] = 9.0f;",
            "4 * sizeof(float)",
        )
        assert (out.error, out.stdout) == (None, "1 9.0\n")

    def test_cuda_memcpy_to_a_negative_offset_is_an_illegal_access(self):
        out = run_cuda(
            "int main() {\n"
            "  float* h = (float*)malloc(4 * sizeof(float));\n"
            "  for (int i = 0; i < 4; i++) { h[i] = 1.0f; }\n"
            "  float* d;\n"
            "  cudaMalloc(&d, 4 * sizeof(float));\n"
            "  int rc = cudaMemcpy(d - 1, h, 4 * sizeof(float), cudaMemcpyHostToDevice);\n"
            '  printf("%d\\n", rc);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.stdout, out.error, out.error_detail) == (
            "",
            "CUDA error: an illegal memory access was encountered",
            "cudaMemcpy of 16 bytes overruns buffer (src len 4, dst len 4)",
        )

    def test_cuda_malloc_into_an_array_element(self):
        out = run_cuda(
            "int main() {\n"
            "  float** ptrs = (float**)malloc(2 * sizeof(float*));\n"
            "  for (int i = 0; i < 2; i++) { cudaMalloc(&ptrs[i], 4 * sizeof(float)); }\n"
            "  float* h = (float*)malloc(4 * sizeof(float));\n"
            "  h[2] = 2.5f;\n"
            "  cudaMemcpy(ptrs[1], h, 4 * sizeof(float), cudaMemcpyHostToDevice);\n"
            "  float* back = (float*)malloc(4 * sizeof(float));\n"
            "  cudaMemcpy(back, ptrs[1], 4 * sizeof(float), cudaMemcpyDeviceToHost);\n"
            '  printf("%.1f %d\\n", back[2], ptrs[0] != ptrs[1]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.stdout) == (None, "2.5 1\n")

    def test_step_and_update_a_pointer_element(self):
        out = run_cuda(
            "__global__ void shift(int* data, int** ptrs, int* out) {\n"
            "  int i = threadIdx.x;\n"
            "  ptrs[i] = data + i;\n"
            "  ptrs[i]++; ptrs[i] += 3; ptrs[i]--; --ptrs[i]; ptrs[i] -= 1;\n"
            "  int* old = ptrs[i]++;\n"
            "  out[i] = old[0] * 100 + ptrs[i][0];\n"
            "}\n"
            "int main() {\n"
            "  int* h = (int*)malloc(8 * sizeof(int));\n"
            "  for (int i = 0; i < 8; i++) { h[i] = i; }\n"
            "  int* data; int** ptrs; int* out;\n"
            "  cudaMalloc(&data, 8 * sizeof(int));\n"
            "  cudaMalloc(&ptrs, 4 * sizeof(int*));\n"
            "  cudaMalloc(&out, 4 * sizeof(int));\n"
            "  cudaMemcpy(data, h, 8 * sizeof(int), cudaMemcpyHostToDevice);\n"
            "  shift<<<1, 4>>>(data, ptrs, out);\n"
            "  cudaMemcpy(h, out, 4 * sizeof(int), cudaMemcpyDeviceToHost);\n"
            '  printf("%d %d\\n", h[0], h[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "102 405\n")


class TestAtomics:
    def test_atomic_add_counts_all_threads(self):
        out = run_cuda(
            "__global__ void k(int* c) { atomicAdd(&c[0], 1); }\n"
            "int main() {\n"
            "  int* d;\n"
            "  cudaMalloc(&d, sizeof(int));\n"
            "  k<<<4, 64>>>(d);\n"
            "  int* h = (int*)malloc(sizeof(int));\n"
            "  cudaMemcpy(h, d, sizeof(int), cudaMemcpyDeviceToHost);\n"
            '  printf("%d\\n", h[0]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "256\n"
        assert out.profile.total_atomics == 256

    def test_atomic_max(self):
        out = run_cuda(
            "__global__ void k(int* c) { atomicMax(&c[0], threadIdx.x * 3); }\n"
            "int main() {\n"
            "  int* d;\n"
            "  cudaMalloc(&d, sizeof(int));\n"
            "  k<<<1, 32>>>(d);\n"
            "  int* h = (int*)malloc(sizeof(int));\n"
            "  cudaMemcpy(h, d, sizeof(int), cudaMemcpyDeviceToHost);\n"
            '  printf("%d\\n", h[0]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "93\n"

    def test_atomic_returns_old_value(self):
        out = run_cuda(
            "__global__ void k(int* c, int* old) {\n"
            "  old[threadIdx.x] = atomicAdd(&c[0], 10);\n"
            "}\n"
            "int main() {\n"
            "  int* d;\n"
            "  int* o;\n"
            "  cudaMalloc(&d, sizeof(int));\n"
            "  cudaMalloc(&o, 2 * sizeof(int));\n"
            "  k<<<1, 2>>>(d, o);\n"
            "  int* h = (int*)malloc(2 * sizeof(int));\n"
            "  cudaMemcpy(h, o, 2 * sizeof(int), cudaMemcpyDeviceToHost);\n"
            '  printf("%d %d\\n", h[0], h[1]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "0 10\n"


class TestSharedMemoryAndBarriers:
    REDUCE = (
        "__global__ void reduce(float* in, float* out, int n) {\n"
        "  __shared__ float tile[64];\n"
        "  int tid = threadIdx.x;\n"
        "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
        "  tile[tid] = 0.0f;\n"
        "  if (i < n) tile[tid] = in[i];\n"
        "  __syncthreads();\n"
        "  for (int s = blockDim.x / 2; s > 0; s = s / 2) {\n"
        "    if (tid < s) { tile[tid] += tile[tid + s]; }\n"
        "    __syncthreads();\n"
        "  }\n"
        "  if (tid == 0) { atomicAdd(&out[0], tile[0]); }\n"
        "}\n"
    )

    def test_block_reduction(self):
        out = run_cuda(
            self.REDUCE
            + "int main() {\n"
            "  int n = 200;\n"
            "  float* h = (float*)malloc(n * sizeof(float));\n"
            "  for (int i = 0; i < n; i++) h[i] = 1.0f;\n"
            "  float* din;\n"
            "  float* dout;\n"
            "  cudaMalloc(&din, n * sizeof(float));\n"
            "  cudaMalloc(&dout, sizeof(float));\n"
            "  cudaMemcpy(din, h, n * sizeof(float), cudaMemcpyHostToDevice);\n"
            "  reduce<<<4, 64>>>(din, dout, n);\n"
            "  float* r = (float*)malloc(sizeof(float));\n"
            "  cudaMemcpy(r, dout, sizeof(float), cudaMemcpyDeviceToHost);\n"
            '  printf("%.1f\\n", r[0]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.ok, (out.error, out.error_detail)
        assert out.stdout == "200.0\n"

    def test_barrier_divergence_detected(self):
        out = run_cuda(
            "__global__ void k(int* p) {\n"
            "  if (threadIdx.x < 2) { __syncthreads(); }\n"
            "  p[threadIdx.x] = 1;\n"
            "}\n"
            "int main() {\n"
            "  int* d;\n"
            "  cudaMalloc(&d, 4 * sizeof(int));\n"
            "  k<<<1, 4>>>(d);\n"
            "  return 0;\n"
            "}"
        )
        assert out.error is not None
        assert "timed out" in out.error or "launch" in out.error



class TestAddressOfAVariable:
    """``&x`` is an ordinary pointer to the variable's one-cell storage, and
    a ``__shared__`` scalar is one cell per block."""

    def test_device_function_updates_a_kernel_local_through_its_address(self):
        out = run_cuda(
            "__device__ void bump(int* p) { *p = *p + 1; }\n"
            "__global__ void k(int* out) { int c = threadIdx.x; bump(&c); out[threadIdx.x] = c; }\n"
            "int main() {\n"
            "  int* d;\n"
            "  cudaMalloc(&d, 4 * sizeof(int));\n"
            "  k<<<1, 4>>>(d);\n"
            "  int h[4];\n"
            "  cudaMemcpy(h, d, 4 * sizeof(int), cudaMemcpyDeviceToHost);\n"
            '  printf("%d %d\\n", h[0], h[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "1 4\n")

    def test_kernel_takes_the_address_of_its_own_parameter(self):
        out = run_cuda(
            "__global__ void k(int* out, int n) {\n"
            "  int* pn = &n;\n"
            "  *pn = *pn * 2;\n"
            "  out[threadIdx.x] = n + threadIdx.x;\n"
            "}\n"
            "int main() {\n"
            "  int* d;\n"
            "  cudaMalloc(&d, 2 * sizeof(int));\n"
            "  k<<<1, 2>>>(d, 5);\n"
            "  int h[2];\n"
            "  cudaMemcpy(h, d, 2 * sizeof(int), cudaMemcpyDeviceToHost);\n"
            '  printf("%d %d\\n", h[0], h[1]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "10 11\n")

    def test_cuda_memcpy_into_the_address_of_a_host_variable(self):
        out = run_cuda(
            "__global__ void k(float* d) { d[0] = 4.5f; }\n"
            "int main() {\n"
            "  float* d;\n"
            "  cudaMalloc(&d, sizeof(float));\n"
            "  k<<<1, 1>>>(d);\n"
            "  float h = 0.0f;\n"
            "  cudaMemcpy(&h, d, sizeof(float), cudaMemcpyDeviceToHost);\n"
            '  printf("%.1f\\n", h);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "4.5\n")

    def test_atomic_add_into_a_shared_scalar(self):
        out = run_cuda(
            "__global__ void k(float* out) {\n"
            "  __shared__ float total;\n"
            "  if (threadIdx.x == 0) { total = 0.0f; }\n"
            "  __syncthreads();\n"
            "  atomicAdd(&total, 1.0f);\n"
            "  __syncthreads();\n"
            "  if (threadIdx.x == 0) { out[blockIdx.x] = total; }\n"
            "}\n"
            "int main() {\n"
            "  float* d;\n"
            "  cudaMalloc(&d, 2 * sizeof(float));\n"
            "  k<<<2, 8>>>(d);\n"
            "  float h[2];\n"
            "  cudaMemcpy(h, d, 2 * sizeof(float), cudaMemcpyDeviceToHost);\n"
            '  printf("%.1f %.1f\\n", h[0], h[1]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "8.0 8.0\n")

    def test_every_thread_reads_a_shared_scalar_after_the_barrier(self):
        out = run_cuda(
            "__global__ void k(int* out) {\n"
            "  __shared__ int s;\n"
            "  if (threadIdx.x == 0) { s = 7; }\n"
            "  __syncthreads();\n"
            "  out[threadIdx.x] = s;\n"
            "}\n"
            "int main() {\n"
            "  int* d;\n"
            "  cudaMalloc(&d, 2 * sizeof(int));\n"
            "  k<<<1, 2>>>(d);\n"
            "  int h[2];\n"
            "  cudaMemcpy(h, d, 2 * sizeof(int), cudaMemcpyDeviceToHost);\n"
            '  printf("%d %d\\n", h[0], h[1]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "7 7\n")

    def test_shared_array_in_a_kernel_without_a_barrier(self):
        out = run_cuda(
            "__global__ void k(int* out) {\n"
            "  __shared__ int t[4];\n"
            "  t[threadIdx.x] = threadIdx.x * 2;\n"
            "  out[threadIdx.x] = t[threadIdx.x];\n"
            "}\n"
            "int main() {\n"
            "  int* d;\n"
            "  cudaMalloc(&d, 4 * sizeof(int));\n"
            "  k<<<1, 4>>>(d);\n"
            "  int h[4];\n"
            "  cudaMemcpy(h, d, 4 * sizeof(int), cudaMemcpyDeviceToHost);\n"
            '  printf("%d %d\\n", h[1], h[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "2 6\n")

    def test_address_of_a_shared_array(self):
        out = run_cuda(
            "__global__ void k(int* out) {\n"
            "  __shared__ int t[4];\n"
            "  int** pt = &t;\n"
            "  t[threadIdx.x] = threadIdx.x;\n"
            "  __syncthreads();\n"
            "  out[threadIdx.x] = (*pt)[3 - threadIdx.x];\n"
            "}\n"
            "int main() {\n"
            "  int* d;\n"
            "  cudaMalloc(&d, 4 * sizeof(int));\n"
            "  k<<<1, 4>>>(d);\n"
            "  int h[4];\n"
            "  cudaMemcpy(h, d, 4 * sizeof(int), cudaMemcpyDeviceToHost);\n"
            '  printf("%d %d\\n", h[0], h[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "3 0\n")

    def test_taking_the_address_leaves_the_cost_of_naming_it(self):
        def launch(take):
            return run_cuda(
                "__global__ void k(int* out) {\n"
                f"  int x = threadIdx.x; int* px = {take};\n"
                "  for (int i = 0; i < 5; i++) { x = x + i; x *= 2; }\n"
                "  out[threadIdx.x] = x;\n"
                "}\n"
                "int main() {\n"
                "  int* d;\n"
                "  cudaMalloc(&d, 4 * sizeof(int));\n"
                "  k<<<1, 4>>>(d);\n"
                "  int h[4];\n"
                "  cudaMemcpy(h, d, 4 * sizeof(int), cudaMemcpyDeviceToHost);\n"
                '  printf("%d\\n", h[3]);\n'
                "  return 0;\n"
                "}"
            )

        plain, addressed = launch("NULL"), launch("&x")
        assert (addressed.error, addressed.stdout) == (None, plain.stdout)
        counters = [
            [(c.ops, c.load_bytes, c.store_bytes, c.atomics)
             for c in [out.profile.host] + [e.counters for e in out.profile.kernel_events]]
            for out in (plain, addressed)
        ]
        assert counters[0] == counters[1]


class TestProfileEvents:
    def test_kernel_event_recorded(self, cuda_vecadd_source):
        out = run_source(cuda_vecadd_source.text, Dialect.CUDA)
        kernels = out.profile.kernel_events
        assert len(kernels) == 1
        ev = kernels[0]
        assert ev.name == "add"
        assert ev.total_threads == 256
        assert ev.block_size == 128
        assert ev.api == "cuda"
        assert ev.counters.ops > 0
        assert ev.counters.load_bytes > 0

    def test_transfer_events_recorded(self, cuda_vecadd_source):
        out = run_source(cuda_vecadd_source.text, Dialect.CUDA)
        transfers = out.profile.transfer_events
        directions = [t.direction for t in transfers]
        assert directions.count("h2d") == 2
        assert directions.count("d2h") == 1
        assert all(t.bytes == 256 * 4 for t in transfers)

    def test_omp_pragma_in_cuda_dialect_runs_serially(self):
        out = run_source(
            "int main() {\n"
            "  int n = 8;\n"
            "  int* a = (int*)malloc(n * sizeof(int));\n"
            "#pragma omp parallel for\n"
            "  for (int i = 0; i < n; i++) { a[i] = i; }\n"
            "  int s = 0;\n"
            "  for (int i = 0; i < n; i++) s += a[i];\n"
            '  printf("%d\\n", s);\n'
            "  return 0;\n"
            "}",
            Dialect.CUDA,
            expect_clean_compile=False,
        )
        assert out.stdout == "28\n"
        # No device events: the pragma was ignored by "nvcc".
        assert out.profile.kernel_events == []
