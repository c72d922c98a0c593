"""Tests for the compiler drivers and executor facade."""

from __future__ import annotations

import pytest

from repro.minilang.source import Dialect
from repro.toolchain import (
    CUDA_COMPILER,
    OMP_COMPILER,
    Executor,
    compiler_for,
)


class TestCompilerDriver:
    def test_clean_cuda_compile(self, cuda_vecadd_source):
        result = CUDA_COMPILER.compile(cuda_vecadd_source.text)
        assert result.ok
        assert result.program is not None
        assert "error" not in result.stderr.split("generated")[0].lower() or (
            result.stderr == ""
        )

    def test_clean_omp_compile(self, omp_vecadd_source):
        result = OMP_COMPILER.compile(omp_vecadd_source.text)
        assert result.ok

    def test_compile_error_produces_stderr(self):
        result = CUDA_COMPILER.compile("int main() { return undeclared_var; }")
        assert not result.ok
        assert "use of undeclared identifier 'undeclared_var'" in result.stderr
        assert "undeclared-ident" in result.error_codes
        assert result.program is None

    def test_parse_error_reported_as_compile_failure(self):
        result = OMP_COMPILER.compile("int main() { int x = ; }")
        assert not result.ok
        assert "error" in result.stderr

    def test_command_lines_match_paper_toolchains(self):
        assert CUDA_COMPILER.command("foo.cu").startswith("nvcc")
        assert "sm_80" in CUDA_COMPILER.command("foo.cu")  # the A100
        assert OMP_COMPILER.command("foo.cpp").startswith("clang++")
        assert "-fopenmp" in OMP_COMPILER.command("foo.cpp")

    def test_cuda_code_rejected_by_omp_compiler(self, cuda_vecadd_source):
        result = OMP_COMPILER.compile(cuda_vecadd_source.text)
        assert not result.ok
        # A host compiler chokes on the <<<...>>> launch syntax first.
        assert "error" in result.stderr

    def test_omp_code_accepted_by_cuda_compiler_with_warning(
        self, omp_vecadd_source
    ):
        # nvcc ignores unknown pragmas: compiles, warns, runs serially.
        result = CUDA_COMPILER.compile(omp_vecadd_source.text)
        assert result.ok
        assert result.warning_count >= 1

    def test_compiler_for(self):
        assert compiler_for(Dialect.CUDA) is CUDA_COMPILER
        assert compiler_for(Dialect.OMP) is OMP_COMPILER


class TestExecutor:
    def test_successful_run(self, cuda_vecadd_source):
        result = CUDA_COMPILER.compile(cuda_vecadd_source.text)
        run = Executor().run(result.program, Dialect.CUDA)
        assert run.ok
        assert run.stdout.startswith("checksum")
        assert run.runtime_seconds > 0
        assert run.exit_code == 0

    def test_runtime_error_reported_in_stderr(self):
        src = (
            "__global__ void k(float* p) { p[9999] = 1.0f; }\n"
            "int main() { float* d; cudaMalloc(&d, 16); k<<<1, 1>>>(d); return 0; }"
        )
        result = CUDA_COMPILER.compile(src)
        assert result.ok
        run = Executor().run(result.program, Dialect.CUDA)
        assert not run.ok
        assert "illegal memory access" in run.stderr
        assert run.exit_code != 0

    def test_nonzero_exit_code(self):
        result = compiler_for(Dialect.C).compile("int main() { return 3; }")
        run = Executor().run(result.program, Dialect.C)
        assert not run.ok
        assert run.exit_code == 3
        assert "non-zero" in run.stderr

    def test_work_scale_scales_runtime(self, cuda_vecadd_source):
        result = CUDA_COMPILER.compile(cuda_vecadd_source.text)
        ex = Executor()
        t1 = ex.run(result.program, Dialect.CUDA, work_scale=1.0).runtime_seconds
        t2 = ex.run(result.program, Dialect.CUDA, work_scale=100.0).runtime_seconds
        assert t2 == pytest.approx(100 * t1, rel=0.01)

    def test_args_forwarded(self):
        result = compiler_for(Dialect.C).compile(
            'int main(int argc, char** argv) { printf("%d\\n", atoi(argv[1]) * 3); return 0; }'
        )
        run = Executor().run(result.program, Dialect.C, args=["14"])
        assert run.stdout == "42\n"

    def test_deterministic_runtime(self, omp_vecadd_source):
        result = OMP_COMPILER.compile(omp_vecadd_source.text)
        ex = Executor()
        t1 = ex.run(result.program, Dialect.OMP).runtime_seconds
        t2 = ex.run(result.program, Dialect.OMP).runtime_seconds
        assert t1 == t2

    def test_finished_runs_are_freed_without_the_cyclic_collector(
        self, monkeypatch
    ):
        # Every Table IV baseline, in both dialects: once ``run`` returns,
        # reference counting alone must free its ProgramRunner (and with
        # it the run's guest buffers).
        import gc
        import weakref

        from repro.hecbench import all_apps
        from repro.toolchain import executor as executor_module

        runners = []
        make_runner = executor_module.ProgramRunner

        def recording(*args, **kwargs):
            runner = make_runner(*args, **kwargs)
            runners.append(weakref.ref(runner))
            return runner

        monkeypatch.setattr(executor_module, "ProgramRunner", recording)
        programs = []
        for spec in all_apps():
            for dialect in (Dialect.CUDA, Dialect.OMP):
                compiled = compiler_for(dialect).compile(spec.source(dialect))
                assert compiled.ok
                programs.append((f"{spec.name}/{dialect.value}", spec,
                                 dialect, compiled.program))
        alive = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for name, spec, dialect, program in programs:
                assert Executor().run(program, dialect, args=spec.args).ok
                if runners[-1]() is not None:
                    alive.append(name)
        finally:
            if collecting:
                gc.enable()
        assert len(runners) == 20
        assert alive == []
