"""Integration tests for the LASSI pipeline."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import BaselineError
from repro.hecbench import get_app
from repro.llm.profiles import CellPlan
from repro.llm.simulated import SimulatedLLM
from repro.minilang.source import Dialect
from repro.pipeline import BaselinePreparer, PipelineConfig, build_pipeline
from repro.pipeline.verification import verify_output


def make_pipeline(model="gpt4", src=Dialect.OMP, tgt=Dialect.CUDA,
                  plan=None, config=None):
    llm = SimulatedLLM(model, src, tgt, plan=plan or CellPlan())
    return build_pipeline(llm, src, tgt, config=config)


def run_app(pipeline, app_name="layout", src=Dialect.OMP, tgt=Dialect.CUDA):
    app = get_app(app_name)
    return pipeline.run(
        app.source(src),
        reference_target_code=app.source(tgt),
        args=app.args,
        work_scale=app.work_scale,
        launch_scale=app.launch_scale,
    )


class TestBaselineStage:
    def test_broken_source_halts_pipeline(self):
        pipeline = make_pipeline()
        with pytest.raises(BaselineError):
            pipeline.run("int main() { return undeclared; }")

    def test_crashing_source_halts_pipeline(self):
        pipeline = make_pipeline(src=Dialect.OMP, tgt=Dialect.CUDA)
        with pytest.raises(BaselineError):
            pipeline.run(
                "int main() { int* p = NULL; return p[0]; }"
            )

    def test_baseline_cached(self):
        preparer = BaselinePreparer()
        app = get_app("layout")
        b1 = preparer.prepare(app.omp_source, Dialect.OMP, app.args)
        b2 = preparer.prepare(app.omp_source, Dialect.OMP, app.args)
        assert b1 is b2

    def test_concurrent_first_requests_build_once(self):
        # Threads racing for one uncached baseline wait on its per-key
        # lock for the first build instead of repeating it.
        preparer = BaselinePreparer()
        app = get_app("layout")
        build = preparer._build

        def slow_build(*args):
            time.sleep(0.05)  # keep the other threads waiting on the lock
            return build(*args)

        preparer._build = slow_build
        start = threading.Barrier(4, timeout=30)

        def prepare(_):
            start.wait()
            return preparer.prepare(app.omp_source, Dialect.OMP, app.args)

        with ThreadPoolExecutor(max_workers=4) as pool:
            baselines = list(pool.map(prepare, range(4), timeout=60))
        assert preparer.compile_count == 1
        assert preparer.hit_count == 3
        assert all(b is baselines[0] for b in baselines)


class TestHappyPath:
    def test_clean_translation_succeeds(self):
        result = run_app(make_pipeline())
        assert result.ok
        assert result.status == "success"
        assert result.self_corrections == 0
        assert result.verified
        assert result.ratio is not None and result.ratio > 0
        assert 0 <= result.sim_t <= 1
        assert 0 <= result.sim_l <= 1
        assert result.generated_code is not None
        assert "__global__" in result.generated_code
        assert len(result.attempts) == 1
        assert result.metrics().ok

    def test_planned_corrections_counted(self):
        plan = CellPlan(self_corrections=2,
                        fault_ids=("missing-semicolon", "undeclared-index-cuda"))
        result = run_app(make_pipeline(plan=plan))
        assert result.ok
        assert result.self_corrections == 2
        kinds = [a.kind for a in result.attempts]
        assert kinds[0] == "initial"
        assert "compile-correction" in kinds

    def test_runtime_fault_goes_through_execute_loop(self):
        plan = CellPlan(self_corrections=1, fault_ids=("oob-guard-cuda",))
        result = run_app(make_pipeline(plan=plan), app_name="pathfinder")
        assert result.ok
        assert any(a.kind == "execute-correction" for a in result.attempts)


class TestFailureModes:
    def test_na_compile_exhausts_iterations(self):
        plan = CellPlan(outcome="na-compile",
                        fault_ids=("kernel-called-directly",))
        config = PipelineConfig(max_corrections=3)
        result = run_app(make_pipeline(plan=plan, config=config))
        assert result.status == "compile-failed"
        assert result.self_corrections == 3
        assert not result.metrics().ok

    def test_na_output_caught_by_verification(self):
        plan = CellPlan(outcome="na-output",
                        fault_ids=("missing-copyback-cuda",))
        result = run_app(make_pipeline(plan=plan))
        assert result.status == "output-mismatch"
        assert "difference" in result.failure_detail or "line" in result.failure_detail

    def test_verification_can_be_disabled(self):
        plan = CellPlan(outcome="na-output",
                        fault_ids=("missing-copyback-cuda",))
        config = PipelineConfig(verify_output=False)
        result = run_app(make_pipeline(plan=plan, config=config))
        # without the output check the wrong-answer code "succeeds" —
        # exactly why the paper lists automated verification as needed
        assert result.status == "success"

    def test_self_correction_ablation(self):
        plan = CellPlan(self_corrections=1, fault_ids=("missing-semicolon",))
        config = PipelineConfig(self_correction=False)
        result = run_app(make_pipeline(plan=plan, config=config))
        assert result.status == "compile-failed"
        assert result.self_corrections == 0


class TestStageGraph:
    def test_figure1_stages_present(self):
        pipeline = make_pipeline()
        stages = pipeline.stage_names()
        assert stages[0].startswith("Source code preparation")
        assert any("Compile self-correction" in s for s in stages)
        assert any("Execute self-correction" in s for s in stages)
        assert any("verification" in s for s in stages)

    def test_ablated_stage_graph(self):
        config = PipelineConfig(self_correction=False, include_knowledge=False)
        stages = make_pipeline(config=config).stage_names()
        assert not any("knowledge summary" in s for s in stages)
        assert any("single attempt" in s for s in stages)


class TestVerification:
    def test_exact_match(self):
        assert verify_output("a 1\n", "a 1\n").matches

    def test_whitespace_tolerant(self):
        assert verify_output("a 1  \n\n", "a 1\n").matches

    def test_mismatch_detail(self):
        v = verify_output("x 1\nx 2\n", "x 1\nx 3\n")
        assert not v.matches
        assert "line 2" in v.detail

    def test_line_count_detail(self):
        v = verify_output("a\nb\n", "a\n")
        assert not v.matches
        assert "line count" in v.detail
