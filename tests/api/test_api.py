"""The stable ``repro.api`` facade: translate / evaluate / campaigns."""

from __future__ import annotations

import json

from repro import api
from repro.experiments import (
    CampaignSpec,
    ExperimentRunner,
    RunSession,
    Variant,
)
from repro.hecbench import get_app
from repro.llm.profiles import OMP2CUDA
from repro.llm.simulated import SimulatedLLM
from repro.minilang.source import Dialect
from repro.pipeline import PipelineConfig, Status
from repro.pipeline.events import StageFinished

SMALL = dict(models=["gpt4"], directions=[OMP2CUDA], apps=["layout", "bsearch"])


class TestTranslate:
    def test_by_name(self):
        result = api.translate("layout", model="gpt4", direction="omp2cuda")
        assert result.ok
        assert result.model == "GPT-4"

    def test_by_appspec_and_direction(self):
        app = get_app("bsearch")
        result = api.translate(app, model="codestral", direction="cuda2omp")
        assert result.status in list(Status)

    def test_config_threading(self):
        # Ablations pass straight through to the stage graph.
        result = api.translate(
            "layout", config=PipelineConfig(verify_output=False)
        )
        assert result.ok

    def test_matches_cli_grid_cell(self):
        direct = api.translate("layout", model="gpt4", direction="omp2cuda")
        grid = api.evaluate(models=["gpt4"], directions=["omp2cuda"],
                            apps=["layout"])
        assert len(grid) == 1
        assert grid[0].result == direct


class TestEvaluate:
    def test_matches_runner(self):
        facade = api.evaluate(**SMALL)
        runner = ExperimentRunner(jobs=1).run(**SMALL)
        assert [r.to_dict() for r in facade] == [r.to_dict() for r in runner]

    def test_session_resume_through_facade(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        api.evaluate(models=["gpt4"], directions=[OMP2CUDA], apps=["layout"],
                     session=RunSession(path))
        results = api.evaluate(
            models=["gpt4"], directions=[OMP2CUDA],
            apps=["layout", "bsearch"],
            session=RunSession(path, resume=True),
        )
        assert [r.scenario.app_name for r in results] == ["layout", "bsearch"]

    def test_backend_and_jobs_spellings(self):
        # "auto" is one worker per core: worker processes on a multi-core
        # host, the caller's thread on a single core.
        results = api.evaluate(jobs="auto", **SMALL)
        assert [r.result.status for r in results] == [
            r.result.status for r in api.evaluate(**SMALL)
        ]


class TestBuildPipeline:
    def test_subscribers_attached_before_first_run(self):
        app = get_app("layout")
        events = []
        llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA)
        pipeline = api.build_pipeline(
            llm, Dialect.OMP, Dialect.CUDA, subscribers=[events.append]
        )
        result = pipeline.run(
            app.omp_source, reference_target_code=app.cuda_source,
            args=app.args, work_scale=app.work_scale,
            launch_scale=app.launch_scale,
        )
        assert result.ok
        stages = [e.stage for e in events if isinstance(e, StageFinished)]
        assert stages[0] == "baseline-prep" and stages[-1] == "metrics"


class TestCampaigns:
    def _spec(self):
        return CampaignSpec(
            name="api-mini",
            models=["gpt4"],
            directions=["omp2cuda"],
            apps=["layout"],
            variants=[
                Variant(name="baseline"),
                Variant(name="no-verify", overrides={"verify_output": False}),
            ],
        )

    def test_run_campaign_with_spec(self, tmp_path):
        campaign = api.run_campaign(self._spec(), root=tmp_path, trace=True)
        assert len(campaign.runs) == 2
        assert all(run.complete for run in campaign.runs)
        manifest = json.loads(
            (campaign.directory / "manifest.json").read_text(encoding="utf-8")
        )
        assert all(cell["completed"] for cell in manifest["cells"])
        # The ablated variant ran without the verify stage.
        by_name = campaign.by_variant()

        def stages(run):
            return {
                span["name"]
                for sr in run.results
                for span in sr.result.spans
                if span["kind"] == "stage"
            }

        assert "verify" in stages(by_name["baseline"][0])
        assert "verify" not in stages(by_name["no-verify"][0])

    def test_run_campaign_by_preset_name_is_resolved(self, tmp_path):
        runner = api.build_campaign("knowledge-ablation", root=tmp_path)
        assert runner.spec.name == "knowledge-ablation"
        assert runner.directory == tmp_path / "knowledge-ablation"

    def test_rerun_replays_from_artifacts(self, tmp_path):
        first = api.run_campaign(self._spec(), root=tmp_path)
        assert first.total_pipeline_runs == 2
        second = api.run_campaign(self._spec(), root=tmp_path)
        assert second.total_pipeline_runs == 0
        for before, after in zip(first.runs, second.runs):
            assert [r.result for r in after.results] == [
                r.result for r in before.results
            ]


class TestPerfApi:
    def test_profile_baselines_snapshot_shape(self):
        snap = api.profile_baselines(apps=["layout"])
        assert sorted(snap["profiles"]) == ["layout/cuda", "layout/omp"]
        for profile in snap["profiles"].values():
            assert profile["steps"] > 0

    def test_profile_baselines_is_deterministic(self):
        a = api.profile_baselines(apps=["layout"], dialects=("cuda",))
        b = api.profile_baselines(apps=["layout"], dialects=("cuda",))
        assert a == b

    def test_profile_baselines_accepts_appspec(self):
        spec = get_app("bsearch")
        snap = api.profile_baselines(apps=[spec], dialects=("omp",))
        assert list(snap["profiles"]) == ["bsearch/omp"]

    def test_perf_regress_round_trip(self, tmp_path):
        snap = api.profile_baselines(apps=["layout"], dialects=("cuda",))
        base = tmp_path / "base.json"
        base.write_text(json.dumps(snap), encoding="utf-8")
        report, ok = api.perf_regress(base, base, tolerance=0.1)
        assert ok and not report["regressions"]
        snap["profiles"]["layout/cuda"]["sim_seconds"] *= 2
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(snap), encoding="utf-8")
        report, ok = api.perf_regress(base, slow, tolerance=0.1)
        assert not ok and report["regressions"] == ["layout/cuda"]

    def test_critical_path_over_a_traced_session(self, tmp_path):
        session = RunSession(tmp_path / "sess.jsonl")
        api.evaluate(session=session, trace=True, **SMALL)
        report = api.critical_path(tmp_path / "sess.jsonl")
        assert report["scenarios"] == 2
        assert sum(report["dominant_counts"].values()) == 2
        for row in report["rows"]:
            assert row["dominant"] in ("llm", "compile", "exec", "overhead")
