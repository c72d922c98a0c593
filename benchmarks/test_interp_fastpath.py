"""Per-launch latency of the interpreter's flat-schedule fast path.

Barrier-free, atomics-free kernels take the flat path (one step charge
per launch, the thread loop inside the kernel's generated launcher);
kernels with ``__syncthreads`` are generated as generator functions that
the executor interleaves at each barrier.
This microbench launches the *same arithmetic* both ways — once as a plain
kernel, once with a (semantically idle) trailing barrier — and a third
time as an OpenMP ``target teams distribute parallel for`` loop over mapped
arrays (run inside the generated function that holds it).  It reports the
per-launch latency of each, plus the compile cache's hit rate over repeated
front-ends of identical source.  A host-loop leg reports the ns per
iteration of a loop in ``main`` that stores one element and of one that
loads two, next to the same loops measured before host loops resolved
their pointers once and kept the step budget in a local.  It is reported,
not gated.

Writes ``BENCH_interp_fastpath.latest.json`` (gitignored; CI uploads it).
A performance change copies the figures it reports into the committed
``BENCH_interp_fastpath.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.minilang import parse
from repro.minilang.source import Dialect, SourceFile
from repro.interp import ProgramRunner
from repro.toolchain import CUDA_COMPILER, clear_compile_cache, compile_cache_stats

#: Kernel launches measured per variant.
LAUNCHES = 60
#: Launch geometry (threads = GRID_DIM * BLOCK_DIM per launch).
GRID_DIM, BLOCK_DIM = 4, 64
#: Repeated front-ends of one source for the compile-cache leg.
COMPILES = 25

#: Iterations of one timed host-loop run, and timed runs per loop (the
#: fastest is kept).
HOST_ITERATIONS, HOST_RUNS = 20_000, 5

#: Host loop bodies timed per iteration.
HOST_LOOPS = {"store": "a[i] = i;", "two_load": "s += a[i] * b[i];"}

#: The host-loop legs on the commit before host loops resolved their
#: pointers once and kept the step budget in a local: the median of ten
#: runs of this module, each alternated with a run of the commit that
#: changed them (shared 2-core box, Python 3.11).  An "after" compares with
#: these only from the same sitting.
HOST_LOOP_BEFORE = {"store": 219.4, "two_load": 319.9}

BENCH_ARTIFACT = Path("BENCH_interp_fastpath.latest.json")


def _kernel_source(with_barrier: bool) -> str:
    # Identical arithmetic; the barrier variant only appends __syncthreads()
    # so the work per thread matches and the schedule is the only variable.
    barrier = "  __syncthreads();\n" if with_barrier else ""
    return (
        "__global__ void work(float* a, float* b, int n) {\n"
        "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
        "  if (i < n) {\n"
        "    float x = a[i];\n"
        "    for (int k = 0; k < 8; k++) { x = x * 1.0001f + 0.5f; }\n"
        "    b[i] = x;\n"
        "  }\n"
        f"{barrier}"
        "}\n"
        "int main(int argc, char** argv) {\n"
        f"  int n = {GRID_DIM * BLOCK_DIM};\n"
        "  int iters = atoi(argv[1]);\n"
        "  float* a; float* b;\n"
        "  cudaMalloc(&a, n * sizeof(float));\n"
        "  cudaMalloc(&b, n * sizeof(float));\n"
        "  for (int it = 0; it < iters; it++) {\n"
        f"    work<<<{GRID_DIM}, {BLOCK_DIM}>>>(a, b, n);\n"
        "  }\n"
        "  return 0;\n"
        "}\n"
    )


def _omp_source() -> str:
    return (
        "int main(int argc, char** argv) {\n"
        f"  int n = {GRID_DIM * BLOCK_DIM};\n"
        "  int iters = atoi(argv[1]);\n"
        "  float* a = (float*)malloc(n * sizeof(float));\n"
        "  float* b = (float*)malloc(n * sizeof(float));\n"
        "  #pragma omp target data map(to: a[0:n]) map(from: b[0:n])\n"
        "  {\n"
        "    for (int it = 0; it < iters; it++) {\n"
        "      #pragma omp target teams distribute parallel for\n"
        "      for (int i = 0; i < n; i++) {\n"
        "        float x = a[i];\n"
        "        for (int k = 0; k < 8; k++) { x = x * 1.0001f + 0.5f; }\n"
        "        b[i] = x;\n"
        "      }\n"
        "    }\n"
        "  }\n"
        "  return 0;\n"
        "}\n"
    )


def _per_launch_seconds(source_text: str, dialect: Dialect = Dialect.CUDA) -> float:
    program, diags = parse(SourceFile("bench", source_text, dialect))
    assert not diags.has_errors, diags.render()
    # One warm-up run on the SAME runner generates and compiles the
    # program's code and binds it to the runner, so the measured run is
    # pure launch+execute.  The runner's profile accumulates across runs,
    # hence the +1 in the event-count assertion.
    runner = ProgramRunner(program, dialect)
    warmup = runner.run(["1"])
    assert warmup.ok, warmup.error
    start = time.perf_counter()
    outcome = runner.run([str(LAUNCHES)])
    elapsed = time.perf_counter() - start
    assert outcome.ok, outcome.error
    assert len(outcome.profile.kernel_events) == LAUNCHES + 1
    return elapsed / LAUNCHES


def _host_loop_source(body: str) -> str:
    return (
        "int main(int argc, char** argv) {\n"
        "  int n = atoi(argv[1]);\n"
        "  float* a = (float*)malloc(n * sizeof(float));\n"
        "  float* b = (float*)malloc(n * sizeof(float));\n"
        "  float s = 0.0f;\n"
        f"  for (int i = 0; i < n; i++) {{ {body} }}\n"
        '  printf("%.1f\\n", s);\n'
        "  return 0;\n"
        "}\n"
    )


def _per_iteration_ns(body: str) -> float:
    program, diags = parse(SourceFile("bench", _host_loop_source(body), Dialect.C))
    assert not diags.has_errors, diags.render()
    runner = ProgramRunner(program, Dialect.C)
    assert runner.run(["1"]).ok  # builds and binds the code
    best = None
    for _ in range(HOST_RUNS):
        start = time.perf_counter()
        outcome = runner.run([str(HOST_ITERATIONS)])
        elapsed = time.perf_counter() - start
        assert outcome.ok, outcome.error
        best = elapsed if best is None else min(best, elapsed)
    return best / HOST_ITERATIONS * 1e9


@pytest.mark.bench
def test_fastpath_per_launch_latency():
    fast_s = _per_launch_seconds(_kernel_source(with_barrier=False))
    barrier_s = _per_launch_seconds(_kernel_source(with_barrier=True))
    omp_s = _per_launch_seconds(_omp_source(), Dialect.OMP)

    clear_compile_cache()
    for _ in range(COMPILES):
        result = CUDA_COMPILER.compile(_kernel_source(with_barrier=False))
        assert result.ok, result.stderr
    cache = compile_cache_stats()
    host_ns = {name: round(_per_iteration_ns(body), 1) for name, body in HOST_LOOPS.items()}

    BENCH_ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "interp_fastpath",
                "launches": LAUNCHES,
                "threads_per_launch": GRID_DIM * BLOCK_DIM,
                "per_launch_us_fastpath": round(fast_s * 1e6, 1),
                "per_launch_us_barrier": round(barrier_s * 1e6, 1),
                "per_launch_us_omp": round(omp_s * 1e6, 1),
                "barrier_vs_fastpath": round(barrier_s / fast_s, 2),
                "compile_cache": {
                    "compiles": COMPILES,
                    "hits": cache["hits"],
                    "misses": cache["misses"],
                    "hit_rate": round(cache["hit_rate"], 4),
                },
                "host_loop_ns_per_iteration": {
                    "iterations": HOST_ITERATIONS,
                    "before": HOST_LOOP_BEFORE,
                    "after": host_ns,
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # The flat schedule must beat the generator interleaver for the same
    # arithmetic, and repeated identical front-ends must be nearly all hits.
    assert fast_s < barrier_s, (
        f"flat schedule ({fast_s * 1e6:.0f}us/launch) should be faster than "
        f"the barrier interleaver ({barrier_s * 1e6:.0f}us/launch)"
    )
    assert cache["misses"] == 1 and cache["hits"] == COMPILES - 1
