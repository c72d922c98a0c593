"""Campaign subsystem: spec validation, execution, resume, cache sharing,
manifest persistence, loading, and report rendering."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.experiments import (
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    Variant,
    get_preset,
    load_campaign,
    load_spec_file,
    preset_names,
    render_campaign_report,
)
from repro.experiments.campaign import MANIFEST_NAME
from repro.llm.profiles import CUDA2OMP, OMP2CUDA

#: A tiny 2-scenario grid so campaign tests stay fast.
GRID = dict(models=["gpt4"], directions=[OMP2CUDA], apps=["layout", "entropy"])


def _spec(name="mini", variants=None, **kw):
    grid = dict(GRID)
    grid.update(kw)
    return CampaignSpec(
        name=name,
        variants=variants or [
            Variant(name="baseline"),
            Variant(name="no-knowledge",
                    overrides={"include_knowledge": False}),
        ],
        **grid,
    )


class TestSpecValidation:
    def test_unknown_override_field_rejected(self):
        with pytest.raises(CampaignError):
            Variant(name="bad", overrides={"max_corections": 3})

    def test_unknown_profile_rejected(self):
        with pytest.raises(CampaignError):
            Variant(name="bad", profile="vibes")

    def test_empty_or_repeated_seeds_rejected(self):
        with pytest.raises(CampaignError):
            Variant(name="bad", seeds=[])
        with pytest.raises(CampaignError):
            Variant(name="bad", seeds=[1, 1])

    def test_unsafe_names_rejected(self):
        with pytest.raises(CampaignError):
            Variant(name="a/b")
        with pytest.raises(CampaignError):
            _spec(name="../escape")

    def test_campaigns_need_variants_with_unique_names(self):
        with pytest.raises(CampaignError):
            CampaignSpec(name="empty", variants=[])
        with pytest.raises(CampaignError):
            CampaignSpec(name="dup", variants=[
                Variant(name="a"), Variant(name="a"),
            ])

    def test_spec_roundtrips_through_dict(self):
        spec = _spec()
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        assert again.variants[1].overrides == {"include_knowledge": False}

    def test_spec_file_loading(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spec().to_dict()))
        assert load_spec_file(path).name == "mini"
        path.write_text("{broken")
        with pytest.raises(CampaignError):
            load_spec_file(path)
        path.write_text(json.dumps(["not", "an", "object"]))
        with pytest.raises(CampaignError):
            load_spec_file(path)


class TestPresets:
    def test_the_paper_ablations_ship_as_presets(self):
        assert {"knowledge-ablation", "self-correction-ablation",
                "max-corrections-sweep"} <= set(preset_names())

    def test_presets_build_valid_specs(self):
        for name in preset_names():
            spec = get_preset(name)
            assert spec.name == name
            assert spec.variants

    def test_max_corrections_sweep_straddles_the_threshold(self):
        caps = {v.overrides["max_corrections"]
                for v in get_preset("max-corrections-sweep").variants}
        assert {33, 34} <= caps  # the paper's worst cell needs exactly 34

    def test_stochastic_preset_has_multi_seed_variants(self):
        spec = get_preset("stochastic-replicates")
        assert all(len(v.seeds) > 1 for v in spec.variants)
        assert all(v.profile == "stochastic" for v in spec.variants)

    def test_unknown_preset_rejected(self):
        with pytest.raises(CampaignError):
            get_preset("nope")


class TestSynthSuiteCampaigns:
    def test_synth_sweep_preset_names_a_generated_suite(self):
        spec = get_preset("synth-sweep")
        assert spec.suite == "synth:stencil,reduction:seeds=2"
        assert CampaignSpec.from_dict(spec.to_dict()).suite == spec.suite

    def test_suite_defaults_to_table4_in_old_manifests(self):
        data = _spec().to_dict()
        del data["suite"]
        assert CampaignSpec.from_dict(data).suite == "table4"

    def test_campaign_runs_and_replays_over_a_synth_suite(self, tmp_path):
        spec = CampaignSpec(
            name="mini-synth",
            suite="synth:scan:seeds=2",
            models=["gpt4"],
            directions=[OMP2CUDA],
            variants=[Variant(name="baseline")],
        )
        runner = CampaignRunner(spec, root=tmp_path, jobs=2)
        result = runner.run()
        assert result.total_pipeline_runs == 2
        assert [r.scenario.app_name for r in result.runs[0].results] == [
            "synth-scan-d1-s0", "synth-scan-d1-s1",
        ]
        # A re-run replays every generated-app cell from artifacts.
        rerun = CampaignRunner(spec, root=tmp_path, jobs=2).run()
        assert rerun.total_pipeline_runs == 0
        # ...and so does loading the campaign directory from disk.
        loaded = load_campaign(tmp_path / "mini-synth")
        assert loaded.spec.suite == "synth:scan:seeds=2"
        assert [r.scenario.app_name for r in loaded.runs[0].results] == [
            "synth-scan-d1-s0", "synth-scan-d1-s1",
        ]

    def test_rerunning_a_directory_under_a_different_grid_is_refused(
        self, tmp_path
    ):
        spec = CampaignSpec(
            name="mix",
            suite="synth:scan:seeds=1",
            models=["gpt4"],
            directions=[OMP2CUDA],
            variants=[Variant(name="baseline")],
        )
        CampaignRunner(spec, root=tmp_path, jobs=1).run()
        # Same name, different suite: must refuse, not blend sessions.
        other = CampaignSpec(
            name="mix",
            suite="synth:matmul:seeds=1",
            models=["gpt4"],
            directions=[OMP2CUDA],
            variants=[Variant(name="baseline")],
        )
        with pytest.raises(CampaignError, match="different grid"):
            CampaignRunner(other, root=tmp_path)
        # Same grid under a different app filter is refused too.
        filtered = CampaignSpec(
            name="mix",
            suite="synth:scan:seeds=1",
            models=["gpt4"],
            directions=[OMP2CUDA],
            apps=["synth-scan-d1-s0"],
            variants=[Variant(name="baseline")],
        )
        with pytest.raises(CampaignError, match="different grid"):
            CampaignRunner(filtered, root=tmp_path)
        # The identical spec still resumes (replay, zero executions) —
        # including under the canonical spelling of the same suite.
        rerun = CampaignRunner(spec, root=tmp_path, jobs=1).run()
        assert rerun.total_pipeline_runs == 0
        canonical = CampaignSpec(
            name="mix",
            suite="synth:scan:seeds=1:difficulty=1",
            models=["gpt4"],
            directions=[OMP2CUDA],
            variants=[Variant(name="baseline")],
        )
        assert CampaignRunner(
            canonical, root=tmp_path, jobs=1
        ).run().total_pipeline_runs == 0
        # Deleting the manifest does not reopen the blending hole: sessions
        # without a readable manifest cannot be tied to any grid.
        (tmp_path / "mix" / MANIFEST_NAME).unlink()
        with pytest.raises(CampaignError, match="no readable manifest"):
            CampaignRunner(other, root=tmp_path)
        with pytest.raises(CampaignError, match="no readable manifest"):
            CampaignRunner(spec, root=tmp_path)

    def test_out_of_suite_app_filter_is_a_campaign_error(self, tmp_path):
        spec = CampaignSpec(
            name="bad-filter",
            suite="synth:scan:seeds=1",
            models=["gpt4"],
            directions=[OMP2CUDA],
            apps=["jacobi"],
            variants=[Variant(name="baseline")],
        )
        with pytest.raises(CampaignError, match="unusable app filter"):
            CampaignRunner(spec, root=tmp_path)

    def test_unusable_suite_is_a_campaign_error(self, tmp_path):
        spec = CampaignSpec(
            name="bad-suite",
            suite="synth:frobnicate",
            variants=[Variant(name="baseline")],
        )
        with pytest.raises(CampaignError, match="unusable suite"):
            CampaignRunner(spec, root=tmp_path)


class TestCampaignExecution:
    def test_run_produces_directory_manifest_and_sessions(self, tmp_path):
        result = CampaignRunner(_spec(), root=tmp_path, jobs=2).run()
        directory = tmp_path / "mini"
        assert result.directory == directory
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert manifest["type"] == "campaign-manifest"
        assert [c["variant"] for c in manifest["cells"]] == [
            "baseline", "no-knowledge",
        ]
        assert all(c["completed"] for c in manifest["cells"])
        for cell in manifest["cells"]:
            assert (directory / cell["session"]).exists()
            assert cell["scenarios"] == 2

    def test_baselines_shared_across_variants(self, tmp_path):
        runner = CampaignRunner(_spec(), root=tmp_path)
        runner.run()
        # 2 apps x 2 dialects, built once despite 2 variants touching them.
        assert runner.baselines.compile_count == 4

    def test_manifest_cells_carry_a_perf_summary(self, tmp_path):
        CampaignRunner(_spec(), root=tmp_path).run()
        manifest = json.loads(
            (tmp_path / "mini" / MANIFEST_NAME).read_text()
        )
        for cell in manifest["cells"]:
            perf = cell["perf"]
            assert perf["scenarios"] == 2
            assert 0 <= perf["scored"] <= perf["scenarios"]
            if perf["speedup"] is not None:
                dist = perf["speedup"]
                assert dist["count"] == perf["scored"]
                assert dist["p50"] >= dist["min"]
                assert dist["p95"] <= dist["max"]

    def test_perf_summary_survives_replay_byte_identically(self, tmp_path):
        CampaignRunner(_spec(), root=tmp_path).run()
        manifest_path = tmp_path / "mini" / MANIFEST_NAME
        first = json.loads(manifest_path.read_text())
        replay = CampaignRunner(_spec(), root=tmp_path).run()
        assert replay.total_pipeline_runs == 0
        second = json.loads(manifest_path.read_text())
        # perf derives from session-persisted ratios, so an executed run
        # and its replay agree exactly.
        assert [c["perf"] for c in first["cells"]] == [
            c["perf"] for c in second["cells"]
        ]
        from repro.experiments import normalize_manifest
        assert "perf" in normalize_manifest(first)["cells"][0]

    def test_stage_time_is_recorded_only_as_trace_spans(self, tmp_path):
        from repro.telemetry import collect_trace_paths, summarize_traces

        CampaignRunner(_spec(), root=tmp_path / "plain").run()
        manifest = json.loads(
            (tmp_path / "plain" / "mini" / MANIFEST_NAME).read_text()
        )
        assert all("stage_seconds" not in cell for cell in manifest["cells"])

        directory = tmp_path / "traced" / "mini"

        def stage_totals():
            summary = summarize_traces(collect_trace_paths(directory))
            return {name: s["total"] for name, s in summary["stages"].items()}

        CampaignRunner(_spec(), root=tmp_path / "traced", trace=True).run()
        before = stage_totals()
        assert "generate" in before
        # A replayed rerun executes nothing and so adds no spans.
        rerun = CampaignRunner(_spec(), root=tmp_path / "traced", trace=True)
        assert rerun.run().total_pipeline_runs == 0
        assert stage_totals() == before

    def test_rerun_replays_everything(self, tmp_path):
        first = CampaignRunner(_spec(), root=tmp_path)
        assert first.run().total_pipeline_runs == 4

        second = CampaignRunner(_spec(), root=tmp_path)
        result = second.run()
        assert result.total_pipeline_runs == 0
        assert second.baselines.compile_count == 0
        assert all(run.complete for run in result.runs)

    def test_rerun_without_sessions_replays_from_cache(self, tmp_path):
        CampaignRunner(_spec(), root=tmp_path).run()
        shutil.rmtree(tmp_path / "mini" / "sessions")

        second = CampaignRunner(_spec(), root=tmp_path)
        result = second.run()
        # Sessions are gone: every scenario came back from the
        # content-addressed cache, nothing executed or compiled.
        assert second.cache.hits == 4
        assert result.total_pipeline_runs == 0
        assert second.baselines.compile_count == 0

    def test_identical_variants_share_cache_within_one_run(self, tmp_path):
        # An explicit max_corrections=40 is the default config: the second
        # variant's cells are content-identical and replay from the first's.
        spec = _spec(variants=[
            Variant(name="baseline"),
            Variant(name="cap-40", overrides={"max_corrections": 40}),
        ])
        runner = CampaignRunner(spec, root=tmp_path)
        result = runner.run()
        by_variant = result.by_variant()
        assert by_variant["baseline"][0].pipeline_runs == 2
        assert by_variant["cap-40"][0].pipeline_runs == 0
        assert runner.cache.hits == 2

    def test_variant_level_resume_skips_finished_cells(self, tmp_path):
        spec = _spec()

        class ExplodingRunner(CampaignRunner):
            def _write_manifest(self, runs, cells):
                super()._write_manifest(runs, cells)
                if len(runs) == 1:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ExplodingRunner(spec, root=tmp_path).run()
        manifest = json.loads(
            (tmp_path / "mini" / MANIFEST_NAME).read_text()
        )
        assert [c["completed"] for c in manifest["cells"]] == [True, False]

        resumed = CampaignRunner(spec, root=tmp_path)
        result = resumed.run()
        # The finished variant replays; only the unfinished one's 2
        # scenarios execute (its ablated config shares nothing with the
        # cached baseline cells).
        assert result.total_pipeline_runs == 2
        assert all(run.complete for run in result.runs)

    def test_multi_seed_variant_runs_one_cell_per_seed(self, tmp_path):
        spec = _spec(variants=[
            Variant(name="stoch", profile="stochastic", seeds=[1, 2, 3]),
        ])
        result = CampaignRunner(spec, root=tmp_path).run()
        assert [r.seed for r in result.runs] == [1, 2, 3]
        assert result.total_pipeline_runs == 6
        sessions = sorted(
            p.name for p in (tmp_path / "mini" / "sessions").iterdir()
        )
        assert sessions == [
            "stoch-seed1.jsonl", "stoch-seed2.jsonl", "stoch-seed3.jsonl",
        ]


class TestLoadAndReport:
    def test_load_campaign_roundtrip(self, tmp_path):
        ran = CampaignRunner(_spec(), root=tmp_path).run()
        loaded = load_campaign(tmp_path / "mini")
        assert loaded.spec.to_dict() == ran.spec.to_dict()
        assert len(loaded.runs) == len(ran.runs)
        for a, b in zip(loaded.runs, ran.runs):
            assert a.variant.name == b.variant.name
            assert a.complete
            assert {r.scenario for r in a.results} == {
                r.scenario for r in b.results
            }

    def test_load_missing_or_broken_manifest(self, tmp_path):
        with pytest.raises(CampaignError):
            load_campaign(tmp_path / "nope")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / MANIFEST_NAME).write_text("{broken")
        with pytest.raises(CampaignError):
            load_campaign(bad)
        (bad / MANIFEST_NAME).write_text(json.dumps({"type": "other"}))
        with pytest.raises(CampaignError):
            load_campaign(bad)

    def test_report_compares_variants_per_direction(self, tmp_path):
        spec = _spec(variants=[
            Variant(name="baseline"),
            Variant(name="no-self-correction",
                    overrides={"self_correction": False}),
        ], models=["gpt4"], directions=None, apps=["matrix-rotate", "layout"])
        result = CampaignRunner(spec, root=tmp_path).run()
        text = render_campaign_report(result)
        assert "OpenMP -> CUDA" in text and "CUDA -> OpenMP" in text
        assert "baseline" in text and "no-self-correction" in text
        assert "(paper)" in text
        # matrix-rotate needs 1 correction omp2cuda: the ablated variant
        # loses it, the baseline keeps it.
        omp_block = text[text.index("OpenMP -> CUDA"):]
        base_row = [ln for ln in omp_block.splitlines()
                    if ln.startswith("baseline")][0]
        ablated_row = [ln for ln in omp_block.splitlines()
                       if ln.startswith("no-self-correction")][0]
        assert "100.0%" in base_row
        assert "50.0%" in ablated_row

    def test_report_renders_mean_plus_minus_stddev_for_replicates(
        self, tmp_path
    ):
        spec = _spec(variants=[
            Variant(name="stoch", profile="stochastic", seeds=[1, 2, 3, 4]),
        ], models=["gpt4", "codestral"], directions=[CUDA2OMP],
            apps=["layout", "entropy", "bsearch"])
        result = CampaignRunner(spec, root=tmp_path, jobs=4).run()
        text = render_campaign_report(result)
        row = [ln for ln in text.splitlines() if ln.startswith("stoch")][0]
        assert "±" in row
        assert "  4  " in row  # the seeds column

    def test_report_flags_incomplete_cells(self, tmp_path):
        CampaignRunner(_spec(), root=tmp_path).run()
        directory = tmp_path / "mini"
        # Chop one session down to a single record.
        session = directory / "sessions" / "baseline-seed2024.jsonl"
        lines = session.read_text().splitlines()
        session.write_text("\n".join(lines[:2]) + "\n")
        text = render_campaign_report(load_campaign(directory))
        assert "incomplete cell(s)" in text
        assert "baseline (seed 2024)" in text

    def test_report_flags_cell_interrupted_mid_campaign(self, tmp_path):
        # A campaign killed between cells must not silently average the
        # unfinished cell in: the manifest's expected_scenarios exposes it.
        spec = _spec()

        class ExplodingRunner(CampaignRunner):
            def _write_manifest(self, runs, cells):
                super()._write_manifest(runs, cells)
                if len(runs) == 1:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ExplodingRunner(spec, root=tmp_path).run()
        text = render_campaign_report(load_campaign(tmp_path / "mini"))
        assert "incomplete cell(s)" in text
        assert "no-knowledge (seed 2024)" in text

    def test_report_with_no_results_yet(self, tmp_path):
        spec = _spec()
        CampaignRunner(spec, root=tmp_path)._write_manifest([], spec.cells())
        text = render_campaign_report(load_campaign(tmp_path / "mini"))
        assert "no recorded scenarios yet" in text


class TestCampaignBackends:
    def test_process_backend_campaign_matches_thread(self, tmp_path):
        # jobs=1 runs every cell in the caller's thread, jobs=2 on workers.
        spec = _spec()
        thread_run = CampaignRunner(spec, root=tmp_path / "thread").run()
        process_run = CampaignRunner(
            spec, root=tmp_path / "process", jobs=2
        ).run()
        assert [
            [r.to_dict() for r in cell.results] for cell in process_run.runs
        ] == [
            [r.to_dict() for r in cell.results] for cell in thread_run.runs
        ]

    def test_process_backend_rerun_replays_from_artifacts(self, tmp_path):
        spec = _spec()
        first = CampaignRunner(spec, root=tmp_path, jobs=2).run()
        assert first.total_pipeline_runs == 4
        rerun = CampaignRunner(spec, root=tmp_path, jobs=2).run()
        assert rerun.total_pipeline_runs == 0
