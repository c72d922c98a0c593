"""Flat-schedule launch fast path: equivalence with the generic path.

Barrier-free, atomics-free kernels run on the flat path: the whole
launch's step budget is charged up front and the generated thread loop
runs every thread.  These tests pin that the fast path is behaviourally
identical to the generic (slow) path, which charges each thread as it
starts — same results, same profile events, same step accounting, same
limit faults — and that gating (barriers, atomics) sends the right
kernels down the right path, as ``profile.launch_paths()`` reports it.
"""

from __future__ import annotations

from repro.interp import Limits, ProgramRunner
from repro.minilang import parse
from repro.minilang.source import Dialect, SourceFile

from tests.interp.helpers import run_source

VECADD = (
    "__global__ void add(float* a, float* b, float* c, int n) {\n"
    "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
    "  if (i < n) { c[i] = a[i] + b[i]; }\n"
    "}\n"
    "int main() {\n"
    "  int n = 64;\n"
    "  float* a; float* b; float* c;\n"
    "  cudaMalloc(&a, n * sizeof(float));\n"
    "  cudaMalloc(&b, n * sizeof(float));\n"
    "  cudaMalloc(&c, n * sizeof(float));\n"
    "  float* h = (float*)malloc(n * sizeof(float));\n"
    "  for (int i = 0; i < n; i++) { h[i] = i; }\n"
    "  cudaMemcpy(a, h, n * sizeof(float), 1);\n"
    "  cudaMemcpy(b, h, n * sizeof(float), 1);\n"
    "  add<<<2, 32>>>(a, b, c, n);\n"
    "  add<<<2, 32>>>(a, c, b, n);\n"
    "  cudaMemcpy(h, b, n * sizeof(float), 2);\n"
    '  printf("%.1f %.1f\\n", h[0], h[63]);\n'
    "  return 0;\n"
    "}\n"
)


#: VECADD with an atomic in a branch no thread takes: the kernel runs on
#: the generic (slow) path, with the same arithmetic as the fast path.
VECADD_GENERIC = VECADD.replace(
    "if (i < n) { c[i] = a[i] + b[i]; }",
    "if (i < n) { c[i] = a[i] + b[i]; } else { atomicAdd(&c[0], 0.0f); }",
)


def _runner(text: str, limits=None) -> ProgramRunner:
    program, diags = parse(SourceFile("t.cu", text, Dialect.CUDA))
    assert not diags.has_errors, diags.render()
    return ProgramRunner(program, Dialect.CUDA, limits=limits)


class TestFlatScheduleEquivalence:
    def test_fast_path_selected_for_plain_kernel(self):
        runner = _runner(VECADD)
        out = runner.run()
        assert out.ok, out.error
        # Both same-shape launches take the flat path.
        assert out.profile.launch_paths() == {"flat": 2}

    def test_results_match_generic_path(self):
        fast = _runner(VECADD)
        fast_out = fast.run()

        # The never-taken atomic sends the kernel down the generic path;
        # everything observable must come out identical.
        generic = _runner(VECADD_GENERIC)
        generic_out = generic.run()

        assert fast_out.profile.launch_paths() == {"flat": 2}
        assert generic_out.profile.launch_paths() == {"slow": 2}
        assert fast_out.stdout == generic_out.stdout == "0.0 189.0\n"
        assert fast_out.exit_code == generic_out.exit_code == 0
        assert fast_out.steps_used == generic_out.steps_used
        fast_ev = fast_out.profile.kernel_events
        generic_ev = generic_out.profile.kernel_events
        assert [(e.name, e.total_threads, e.block_size) for e in fast_ev] == [
            (e.name, e.total_threads, e.block_size) for e in generic_ev
        ]
        assert [e.counters.ops for e in fast_ev] == [
            e.counters.ops for e in generic_ev
        ]

    def test_atomics_kernel_takes_generic_path_and_still_works(self):
        src = (
            "__global__ void count(int* c, int n) {\n"
            "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
            "  if (i < n) { atomicAdd(&c[0], 1); }\n"
            "}\n"
            "int main() {\n"
            "  int* c;\n"
            "  cudaMalloc(&c, sizeof(int));\n"
            "  int h[1];\n"
            "  h[0] = 0;\n"
            "  cudaMemcpy(c, h, sizeof(int), 1);\n"
            "  count<<<4, 16>>>(c, 50);\n"
            "  cudaMemcpy(h, c, sizeof(int), 2);\n"
            '  printf("%d\\n", h[0]);\n'
            "  return 0;\n"
            "}\n"
        )
        runner = _runner(src)
        out = runner.run()
        assert out.ok and out.stdout == "50\n"
        assert out.profile.launch_paths() == {"slow": 1}

    def test_barrier_kernel_unaffected(self):
        src = (
            "__global__ void scan(int* d) {\n"
            "  __shared__ int tmp[4];\n"
            "  tmp[threadIdx.x] = d[threadIdx.x];\n"
            "  __syncthreads();\n"
            "  d[threadIdx.x] = tmp[3 - threadIdx.x];\n"
            "}\n"
            "int main() {\n"
            "  int* d;\n"
            "  cudaMalloc(&d, 4 * sizeof(int));\n"
            "  int h[4];\n"
            "  for (int i = 0; i < 4; i++) { h[i] = i + 1; }\n"
            "  cudaMemcpy(d, h, 4 * sizeof(int), 1);\n"
            "  scan<<<1, 4>>>(d);\n"
            "  cudaMemcpy(h, d, 4 * sizeof(int), 2);\n"
            '  printf("%d %d %d %d\\n", h[0], h[1], h[2], h[3]);\n'
            "  return 0;\n"
            "}\n"
        )
        out = run_source(src, Dialect.CUDA)
        assert out.ok, out.error
        assert out.stdout == "4 3 2 1\n"
        assert out.profile.launch_paths() == {"barrier": 1}

    def test_step_budget_still_enforced_on_fast_path(self):
        out = run_source(VECADD, Dialect.CUDA, limits=Limits(max_steps=50))
        assert out.error is not None
        assert "timed out" in out.error
        # The bulk charge must bottom out exactly like the per-thread
        # nested path does (steps_left == -1), not report a steps_used
        # inflated by the whole launch width.
        assert out.steps_used == 51

    def test_huge_launch_skips_geometry_memo(self):
        src = (
            "__global__ void noop(int n) {}\n"
            "int main() { noop<<<1024, 128>>>(0); return 0; }\n"
        )
        runner = _runner(src)
        out = runner.run()
        assert out.ok
        # 131072 threads on the flat path, charged as one launch.
        assert out.profile.launch_paths() == {"flat": 1}
        assert out.profile.kernel_events[0].total_threads == 131072
        assert out.steps_used == 131072
