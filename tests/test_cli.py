"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

import repro.api
import repro.cli  # noqa: F401 - patched seams live in repro.api now
from repro.cli import main


class TestCli:
    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "matrix-rotate" in out and "randomAccess" in out

    def test_apps_shows_category_and_paper_runtimes(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "Math" in out
        assert "57.3354" in out  # jacobi OpenMP paper runtime
        assert "0.8641" in out   # jacobi CUDA paper runtime

    def test_apps_is_suite_aware(self, capsys):
        assert main(["apps", "--suite", "synth:gather:seeds=2"]) == 0
        out = capsys.readouterr().out
        assert "synth-gather-d1-s0" in out and "synth-gather-d1-s1" in out
        assert "matrix-rotate" not in out

    def test_apps_unknown_suite_is_error(self, capsys):
        assert main(["apps", "--suite", "table5000"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt4" in out and "163,840" in out

    def test_table5(self, capsys):
        assert main(["table", "5"]) == 0
        assert "GPT-4" in capsys.readouterr().out

    def test_translate_success(self, capsys):
        rc = main(["translate", "layout", "--model", "codestral",
                   "--direction", "omp2cuda", "--show-code"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status: success" in out
        assert "__global__" in out

    def test_translate_planned_na_exits_nonzero(self, capsys):
        rc = main(["translate", "dense-embedding", "--model", "gpt4",
                   "--direction", "omp2cuda"])
        assert rc == 1

    def test_evaluate_slice(self, capsys):
        rc = main(["evaluate", "--models", "wizardcoder",
                   "--apps", "entropy", "--direction", "cuda2omp"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table VII" in out
        assert "CUDA -> OpenMP" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["translate", "frobnicate"])

    def test_translate_typo_gets_did_you_mean(self, capsys):
        with pytest.raises(SystemExit):
            main(["translate", "jacobbi"])
        assert "did you mean 'jacobi'" in capsys.readouterr().err

    def test_translate_is_case_insensitive(self, capsys):
        rc = main(["translate", "LAYOUT", "--model", "codestral",
                   "--direction", "omp2cuda"])
        assert rc == 0
        assert "status: success" in capsys.readouterr().out

    def test_translate_synth_app_by_name(self, capsys):
        rc = main(["translate", "synth-stencil-d1-s0", "--model", "codestral",
                   "--direction", "omp2cuda", "--show-code"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status: success" in out
        assert "__global__" in out


class TestEvaluateParallel:
    def test_evaluate_jobs_matches_serial_output(self, capsys):
        argv = ["evaluate", "--models", "wizardcoder", "--apps", "entropy",
                "--direction", "cuda2omp"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_evaluate_process_backend_matches_serial_output(self, capsys):
        argv = ["evaluate", "--models", "wizardcoder", "--apps", "entropy",
                "--direction", "cuda2omp"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2", "--backend", "process"]) == 0
        process_out = capsys.readouterr().out
        assert process_out == serial_out

    def test_evaluate_jobs_auto_accepted(self, capsys):
        argv = ["evaluate", "--models", "wizardcoder", "--apps", "entropy",
                "--direction", "cuda2omp", "--jobs", "auto"]
        assert main(argv) == 0
        assert "CUDA -> OpenMP" in capsys.readouterr().out

    def test_evaluate_bad_jobs_spelling_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--jobs", "several"])
        assert exc.value.code == 2
        assert "'several'" in capsys.readouterr().err

    def test_evaluate_session_and_resume(self, capsys, tmp_path):
        session = str(tmp_path / "run.jsonl")
        argv = ["evaluate", "--models", "gpt4", "--apps", "layout", "entropy",
                "--direction", "omp2cuda", "--jobs", "2", "--session", session]
        assert main(argv) == 0
        capsys.readouterr()
        lines = [json.loads(ln) for ln in open(session)]
        assert lines[0]["type"] == "session"
        assert sum(1 for ln in lines if ln["type"] == "scenario") == 2

        # Resuming a completed session re-executes nothing and still renders.
        assert main(argv + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "Table VI" in captured.out
        assert "2 scenario(s) already recorded" in captured.err

    def test_resume_without_session_is_an_error(self, capsys):
        assert main(["evaluate", "--resume"]) == 2
        assert "--resume requires --session" in capsys.readouterr().err


class TestEvaluateEmptyFilters:
    def test_empty_models_filter_is_a_usage_error(self, capsys):
        # nargs="*" with no values must not silently run the full grid.
        assert main(["evaluate", "--models"]) == 2
        assert "--models requires at least one value" in capsys.readouterr().err

    def test_empty_apps_filter_is_a_usage_error(self, capsys):
        assert main(["evaluate", "--apps", "--direction", "omp2cuda"]) == 2
        assert "--apps requires at least one value" in capsys.readouterr().err


class TestSynthCli:
    def test_synth_list(self, capsys):
        assert main(["synth", "list"]) == 0
        out = capsys.readouterr().out
        for family in ("stencil", "reduction", "scan", "histogram",
                       "matmul", "gather", "fusion"):
            assert family in out

    def test_synth_generate_checks_and_writes(self, capsys, tmp_path):
        out_dir = tmp_path / "gen"
        rc = main(["synth", "generate", "--families", "stencil,reduction",
                   "--seeds", "3", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "6/6 generated pair(s) passed" in out
        assert "suite spec: synth:stencil,reduction:seeds=3:difficulty=1" in out
        assert len(list(out_dir.glob("*.cu"))) == 6
        assert len(list(out_dir.glob("*.cpp"))) == 6

    def test_synth_check_reports_per_family(self, capsys):
        rc = main(["synth", "check", "--families", "matmul", "--seeds", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "matmul" in out
        assert "differential agreement: 2/2" in out

    def test_synth_unknown_family_is_usage_error(self, capsys):
        assert main(["synth", "generate", "--families", "frobnicate"]) == 2
        assert "known families" in capsys.readouterr().err


class TestSuiteEvaluate:
    def test_evaluate_with_synth_suite(self, capsys):
        rc = main(["evaluate", "--suite", "synth:scan:seeds=2",
                   "--models", "gpt4", "--direction", "omp2cuda"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "synth-scan-d1-s0" in out and "synth-scan-d1-s1" in out
        assert "matrix-rotate" not in out

    def test_evaluate_unknown_suite_is_error(self, capsys):
        assert main(["evaluate", "--suite", "table5000"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_evaluate_app_outside_suite_is_error(self, capsys):
        assert main(["evaluate", "--suite", "synth:scan:seeds=1",
                     "--apps", "jacobi"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_evaluate_apps_canonicalized_case_insensitively(self, capsys):
        rc = main(["evaluate", "--models", "wizardcoder", "--apps", "ENTROPY",
                   "--direction", "cuda2omp"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "entropy" in out


class TestTableForwardsProfileAndSeed:
    def test_table6_forwards_profile_seed_and_jobs(self, monkeypatch, capsys):
        captured = {}

        class RecordingRunner:
            def __init__(self, profile="paper", seed=2024, jobs=1, **kwargs):
                captured.update(profile=profile, seed=seed, jobs=jobs)

            def run(self, directions=None, **kwargs):
                return []

        monkeypatch.setattr(
            repro.api, "ParallelExperimentRunner", RecordingRunner
        )
        assert main(["table", "6", "--profile", "stochastic", "--seed", "7",
                     "--jobs", "3"]) == 0
        assert captured == {"profile": "stochastic", "seed": 7, "jobs": 3}

    def test_table4_warns_that_flags_are_static(self, capsys):
        assert main(["table", "4", "--profile", "stochastic"]) == 0
        captured = capsys.readouterr()
        assert "Table IV" in captured.out
        assert "only affect tables 6 and 7" in captured.err

    def test_table7_defaults(self, monkeypatch, capsys):
        captured = {}

        class RecordingRunner:
            def __init__(self, profile="paper", seed=2024, jobs=1, **kwargs):
                captured.update(profile=profile, seed=seed, jobs=jobs)

            def run(self, directions=None, **kwargs):
                return []

        monkeypatch.setattr(
            repro.api, "ParallelExperimentRunner", RecordingRunner
        )
        assert main(["table", "7"]) == 0
        assert captured == {"profile": "paper", "seed": 2024, "jobs": 1}

    def test_table7_jobs_matches_serial_output(self, capsys):
        assert main(["table", "7"]) == 0
        serial = capsys.readouterr().out
        assert main(["table", "7", "--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial


class TestCampaignCli:
    def _mini_spec_file(self, tmp_path):
        spec = {
            "name": "cli-mini",
            "models": ["gpt4"],
            "directions": ["omp2cuda"],
            "apps": ["layout"],
            "variants": [
                {"name": "baseline"},
                {"name": "no-knowledge",
                 "overrides": {"include_knowledge": False}},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_run_preset_and_report(self, capsys, tmp_path):
        root = str(tmp_path / "campaigns")
        rc = main(["campaign", "run", "max-corrections-sweep",
                   "--dir", root, "--jobs", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "cap-33" in captured.out and "cap-34" in captured.out
        assert "(paper)" in captured.out

        assert main(["campaign", "report", "max-corrections-sweep",
                     "--dir", root]) == 0
        assert "cap-34" in capsys.readouterr().out

    def test_run_spec_file(self, capsys, tmp_path):
        path = self._mini_spec_file(tmp_path)
        rc = main(["campaign", "run", "--spec", str(path),
                   "--dir", str(tmp_path / "campaigns")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "cli-mini" in captured.out
        assert "no-knowledge" in captured.out

    def test_run_requires_exactly_one_source(self, capsys, tmp_path):
        assert main(["campaign", "run"]) == 2
        assert "preset name" in capsys.readouterr().err
        path = self._mini_spec_file(tmp_path)
        assert main(["campaign", "run", "knowledge-ablation",
                     "--spec", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_run_unknown_preset(self, capsys):
        assert main(["campaign", "run", "frobnicate"]) == 2
        assert "unknown campaign preset" in capsys.readouterr().err

    def test_report_missing_campaign(self, capsys, tmp_path):
        assert main(["campaign", "report", "nope",
                     "--dir", str(tmp_path)]) == 2
        assert "no campaign manifest" in capsys.readouterr().err

    def test_list_shows_presets_and_directories(self, capsys, tmp_path):
        path = self._mini_spec_file(tmp_path)
        root = str(tmp_path / "campaigns")
        assert main(["campaign", "run", "--spec", str(path),
                     "--dir", root]) == 0
        capsys.readouterr()
        assert main(["campaign", "list", "--dir", root]) == 0
        out = capsys.readouterr().out
        assert "knowledge-ablation" in out
        assert "stochastic-replicates" in out
        assert "cli-mini" in out and "2/2" in out


class TestShardAndMergeCli:
    def _spec_file(self, tmp_path):
        spec = {
            "name": "cli-shard",
            "models": ["gpt4"],
            "directions": ["omp2cuda"],
            "apps": ["layout", "entropy"],
            "variants": [
                {"name": "baseline"},
                {"name": "no-knowledge",
                 "overrides": {"include_knowledge": False}},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_shard_run_merge_and_reference_gate(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        ref = str(tmp_path / "ref")
        shard = str(tmp_path / "sharded")
        assert main(["campaign", "run", "--spec", spec, "--dir", ref]) == 0
        capsys.readouterr()
        for i in range(2):
            rc = main(["campaign", "run", "--spec", spec, "--dir", shard,
                       "--shard", f"{i}/2",
                       "--cache-store",
                       f"sqlite:{tmp_path / 'store.db'}"])
            captured = capsys.readouterr()
            assert rc == 0
            assert f"shard {i}/2 complete" in captured.out
            # No per-variant report on a partial run.
            assert "(paper)" not in captured.out
        rc = main(["campaign", "merge", f"{shard}/cli-shard",
                   "--reference", f"{ref}/cli-shard/manifest.json"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "matches reference" in captured.err
        assert "no-knowledge" in captured.out  # merged report renders

    def test_merge_reference_mismatch_exits_1(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        shard = str(tmp_path / "sharded")
        for i in range(2):
            assert main(["campaign", "run", "--spec", spec, "--dir", shard,
                         "--shard", f"{i}/2"]) == 0
        capsys.readouterr()
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"type": "campaign-manifest",
                                     "cells": []}))
        rc = main(["campaign", "merge", f"{shard}/cli-shard",
                   "--reference", str(bogus)])
        assert rc == 1
        assert "differs from reference" in capsys.readouterr().err

    def test_merge_without_shards_is_an_error(self, capsys, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["campaign", "merge", str(tmp_path / "empty")]) == 2
        assert "no shard manifests" in capsys.readouterr().err

    def test_bad_shard_spec_is_usage_error(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        assert main(["campaign", "run", "--spec", spec,
                     "--dir", str(tmp_path / "x"), "--shard", "5/2"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_bad_cache_store_uri_is_usage_error(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        assert main(["campaign", "run", "--spec", spec,
                     "--dir", str(tmp_path / "x"),
                     "--cache-store", "redis:nope"]) == 2
        assert "unknown cache-store scheme" in capsys.readouterr().err
        assert main(["campaign", "run", "--spec", spec,
                     "--dir", str(tmp_path / "x"),
                     "--cache-store", f"sqlite:{spec}"]) == 2
        assert "file is not a database" in capsys.readouterr().err


class TestCacheCli:
    def _filled_store(self, tmp_path, name="store.db"):
        from repro.experiments import open_store

        uri = f"sqlite:{tmp_path / name}"
        store = open_store(uri)
        store.put("k1", {"v": 1}, namespace="results")
        store.put("k2", {"v": 2}, namespace="compile")
        return uri

    def test_stat_prints_json_shape(self, capsys, tmp_path):
        uri = self._filled_store(tmp_path)
        # A bare path names a sqlite file, a colon in it included.
        colon = self._filled_store(tmp_path, "stores/a:b.db")
        for store in (uri, colon.partition(":")[2]):
            assert main(["cache", "stat", store]) == 0
            stat = json.loads(capsys.readouterr().out)
            assert stat["backend"] == "sqlite"
            assert stat["entries"] == 2
            assert stat["corrupt"] == 0
            assert stat["namespaces"] == {"compile": 1, "results": 1}

    def test_warm_copies_between_stores(self, capsys, tmp_path):
        uri = self._filled_store(tmp_path)
        dest = str(tmp_path / "copy.db")  # a bare path is a sqlite file
        assert main(["cache", "warm", dest, "--from", uri]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["copied"] == 2
        assert report["namespaces"] == {"compile": 1, "results": 1}
        assert report["to"] == f"sqlite:{dest}"
        assert main(["cache", "stat", dest]) == 0
        stat = json.loads(capsys.readouterr().out)
        assert stat["namespaces"] == {"compile": 1, "results": 1}

    def test_gc_reports_and_quarantines(self, capsys, tmp_path):
        import sqlite3
        from contextlib import closing

        uri = self._filled_store(tmp_path)
        with closing(sqlite3.connect(tmp_path / "store.db")) as conn, conn:
            conn.execute("UPDATE entries SET entry='{not json' WHERE key='k2'")
        assert main(["cache", "gc", uri]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scanned"] == 2
        assert report["kept"] == 1
        assert report["quarantined"] == 1
        assert report["quarantined_ids"] == ["compile/k2"]
        assert main(["cache", "stat", uri]) == 0
        stat = json.loads(capsys.readouterr().out)
        assert stat["namespaces"] == {"results": 1}
        assert stat["corrupt"] == 0

    def test_gc_max_age_prunes(self, capsys, tmp_path):
        uri = self._filled_store(tmp_path)
        import time

        time.sleep(0.05)
        assert main(["cache", "gc", uri, "--max-age", "0.01"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pruned"] == 2

    def test_bad_store_uri_exits_2(self, capsys, tmp_path):
        not_a_db = tmp_path / "entries.json"
        not_a_db.write_text(json.dumps({"v": 1}))
        for uri, why in [
            ("redis:nope", "unknown cache-store scheme"),
            (f"dir:{tmp_path}", "unknown cache-store scheme"),
            (f"sqlite:{not_a_db}", f"{not_a_db}: file is not a database"),
        ]:
            assert main(["cache", "stat", uri]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert why in err


class TestTraceCli:
    ARGS = ["evaluate", "--models", "gpt4", "--apps", "layout", "bsearch",
            "--direction", "omp2cuda"]

    def _traced_session(self, tmp_path):
        session = tmp_path / "sess.jsonl"
        assert main(self.ARGS + ["--session", str(session), "--trace"]) == 0
        return session

    def test_evaluate_trace_writes_a_sidecar(self, capsys, tmp_path):
        session = self._traced_session(tmp_path)
        capsys.readouterr()
        sidecar = tmp_path / "sess.trace.jsonl"
        assert sidecar.exists()
        records = [json.loads(line) for line in
                   sidecar.read_text().splitlines()]
        assert records[0]["record"] == "header"
        assert sum(1 for r in records if r["record"] == "trace") == 2

    def test_trace_summarize_a_session(self, capsys, tmp_path):
        session = self._traced_session(tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(session)]) == 0
        out = capsys.readouterr().out
        assert "2 trace(s)" in out
        assert "Per-stage latency" in out
        assert "generate" in out and "p90" in out
        assert "LLM calls: 2" in out
        assert "gpt4/omp2cuda" in out

    def test_trace_show_renders_span_trees(self, capsys, tmp_path):
        session = self._traced_session(tmp_path)
        capsys.readouterr()
        assert main(["trace", "show", str(session), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "trace 0" in out
        assert "(pipeline)" in out and "(stage)" in out
        assert "truncated" in out

    def test_trace_summarize_untraced_session_is_an_error(self, capsys,
                                                          tmp_path):
        session = tmp_path / "plain.jsonl"
        assert main(self.ARGS + ["--session", str(session)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(session)]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_trace_summarize_missing_target_is_an_error(self, capsys,
                                                        tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tracing_keeps_the_session_bytes_identical(self, capsys,
                                                       tmp_path):
        plain = tmp_path / "plain.jsonl"
        traced = tmp_path / "traced.jsonl"
        assert main(self.ARGS + ["--session", str(plain)]) == 0
        assert main(self.ARGS + ["--session", str(traced), "--trace"]) == 0
        capsys.readouterr()
        assert plain.read_bytes() == traced.read_bytes()


class TestLogLevelCli:
    def test_log_level_debug_surfaces_backend_chatter(self, capsys):
        assert main(["--log-level", "debug", "evaluate", "--models", "gpt4",
                     "--apps", "layout", "--direction", "omp2cuda"]) == 0
        assert "backend (jobs=1)" in capsys.readouterr().err

    def test_default_level_hides_debug_chatter(self, capsys):
        assert main(["evaluate", "--models", "gpt4", "--apps", "layout",
                     "--direction", "omp2cuda"]) == 0
        assert "backend (jobs=" not in capsys.readouterr().err

    def test_log_level_error_silences_progress(self, capsys):
        assert main(["--log-level", "error", "evaluate", "--models", "gpt4",
                     "--apps", "layout", "--direction", "omp2cuda",
                     "--verbose"]) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_level_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "shout", "models"])


class TestCampaignTelemetryCli:
    def _spec_file(self, tmp_path):
        spec = {
            "name": "tele-mini",
            "models": ["gpt4"],
            "directions": ["omp2cuda"],
            "apps": ["layout"],
            "variants": [{"name": "baseline"}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_traced_campaign_trace_summarize(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        root = str(tmp_path / "campaigns")
        assert main(["campaign", "run", "--spec", spec, "--dir", root,
                     "--trace"]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", f"{root}/tele-mini"]) == 0
        out = capsys.readouterr().out
        assert "1 trace(s)" in out
        assert "Statuses: " in out
        assert "Per-stage latency" in out

    def test_untraced_campaign_trace_summarize_hints(self, capsys,
                                                     tmp_path):
        spec = self._spec_file(tmp_path)
        root = str(tmp_path / "campaigns")
        assert main(["campaign", "run", "--spec", spec, "--dir", root]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", f"{root}/tele-mini"]) == 2
        assert "--trace" in capsys.readouterr().err


class TestPerfCli:
    def _baseline(self, tmp_path, name="base.json"):
        path = tmp_path / name
        assert main(["perf", "profile", "--apps", "layout", "bsearch",
                     "--out", str(path)]) == 0
        return path

    def test_perf_profile_writes_a_deterministic_snapshot(self, capsys,
                                                          tmp_path):
        a = self._baseline(tmp_path, "a.json")
        b = self._baseline(tmp_path, "b.json")
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        snap = json.loads(a.read_text())
        assert sorted(snap["profiles"]) == [
            "bsearch/cuda", "bsearch/omp", "layout/cuda", "layout/omp"
        ]
        for profile in snap["profiles"].values():
            assert profile["steps"] > 0 and profile["sim_seconds"] > 0

    def test_perf_profile_prints_to_stdout_without_out(self, capsys):
        assert main(["perf", "profile", "--apps", "layout",
                     "--dialects", "cuda"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert list(snap["profiles"]) == ["layout/cuda"]

    def test_perf_profile_unknown_app_is_an_error(self, capsys):
        assert main(["perf", "profile", "--apps", "no-such-app"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_perf_regress_identical_snapshots_exit_zero(self, capsys,
                                                        tmp_path):
        base = self._baseline(tmp_path)
        capsys.readouterr()
        assert main(["perf", "regress", str(base), str(base)]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_perf_regress_injected_regression_exits_nonzero(self, capsys,
                                                            tmp_path):
        base = self._baseline(tmp_path)
        snap = json.loads(base.read_text())
        for profile in snap["profiles"].values():
            profile["steps"] = int(profile["steps"] * 1.2)
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(snap), encoding="utf-8")
        diff = tmp_path / "diff.json"
        capsys.readouterr()
        assert main(["perf", "regress", str(base), str(slow),
                     "--json-out", str(diff)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "steps" in out
        report = json.loads(diff.read_text())
        assert report["regressions"]

    def test_perf_regress_tolerance_flag_absorbs_the_regression(
        self, capsys, tmp_path
    ):
        base = self._baseline(tmp_path)
        snap = json.loads(base.read_text())
        for profile in snap["profiles"].values():
            profile["steps"] = int(profile["steps"] * 1.2)
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(snap), encoding="utf-8")
        capsys.readouterr()
        assert main(["perf", "regress", str(base), str(slow),
                     "--tolerance", "0.5"]) == 0

    def test_perf_regress_env_tolerance(self, capsys, tmp_path,
                                        monkeypatch):
        base = self._baseline(tmp_path)
        snap = json.loads(base.read_text())
        for profile in snap["profiles"].values():
            profile["steps"] = int(profile["steps"] * 1.2)
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(snap), encoding="utf-8")
        capsys.readouterr()
        monkeypatch.setenv("REPRO_PERF_TOLERANCE", "0.5")
        assert main(["perf", "regress", str(base), str(slow)]) == 0

    def test_perf_compare_never_gates(self, capsys, tmp_path):
        base = self._baseline(tmp_path)
        snap = json.loads(base.read_text())
        for profile in snap["profiles"].values():
            profile["steps"] = int(profile["steps"] * 3)
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(snap), encoding="utf-8")
        capsys.readouterr()
        assert main(["perf", "compare", str(base), str(slow)]) == 0
        assert "REGRESSED" in capsys.readouterr().out

    def test_perf_regress_missing_snapshot_is_an_error(self, capsys,
                                                       tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["perf", "regress", missing, missing]) == 2
        assert "error:" in capsys.readouterr().err


class TestTraceCriticalPathCli:
    def test_critical_path_over_a_traced_session(self, capsys, tmp_path):
        session = tmp_path / "sess.jsonl"
        assert main(["evaluate", "--models", "gpt4", "--apps", "layout",
                     "bsearch", "--direction", "omp2cuda",
                     "--session", str(session), "--trace"]) == 0
        capsys.readouterr()
        assert main(["trace", "critical-path", str(session)]) == 0
        out = capsys.readouterr().out
        assert "critical path over 2 scenario(s)" in out
        for bucket in ("llm", "compile", "exec", "overhead"):
            assert bucket in out
        assert "Slowest scenarios" in out

    def test_critical_path_untraced_target_is_an_error(self, capsys,
                                                       tmp_path):
        assert main(["trace", "critical-path", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCampaignPerfReport:
    def _spec_file(self, tmp_path):
        spec = {
            "name": "perf-mini",
            "models": ["gpt4"],
            "directions": ["omp2cuda"],
            "apps": ["layout", "bsearch"],
            "variants": [{"name": "baseline"}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_report_speedup_and_critical_path_counts_match_manifest(
        self, capsys, tmp_path
    ):
        spec = self._spec_file(tmp_path)
        root = str(tmp_path / "campaigns")
        assert main(["campaign", "run", "--spec", spec, "--dir", root,
                     "--trace"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "perf-mini", "--dir", root]) == 0
        out = capsys.readouterr().out
        manifest = json.loads(
            (tmp_path / "campaigns" / "perf-mini" / "manifest.json")
            .read_text(encoding="utf-8")
        )
        [cell] = manifest["cells"]
        # The report's speedup section and the manifest's perf block are
        # derived from the same session-persisted results: counts agree.
        assert cell["perf"]["scenarios"] == 2
        assert "speedup distribution" in out
        scored = cell["perf"]["scored"]
        speedup_row = next(
            line for line in out.splitlines()
            if line.strip().startswith("baseline")
            and "speedup" in out[: out.index(line)]
        )
        assert speedup_row.split()[:4] == ["baseline", "1", "2", str(scored)]
        # Critical path covers exactly the traced (= executed) scenarios.
        assert "critical path (2 traced of 2 recorded scenario(s))" in out

    def test_manifest_perf_block_feeds_the_regression_gate(self, capsys,
                                                           tmp_path):
        spec = self._spec_file(tmp_path)
        root = str(tmp_path / "campaigns")
        assert main(["campaign", "run", "--spec", spec, "--dir", root]) == 0
        capsys.readouterr()
        manifest = str(tmp_path / "campaigns" / "perf-mini" / "manifest.json")
        assert main(["perf", "regress", manifest, manifest]) == 0
        assert "baseline/seed" in capsys.readouterr().out

    def test_traced_report_prints_the_per_stage_table(self, capsys,
                                                      tmp_path):
        spec = self._spec_file(tmp_path)
        root = str(tmp_path / "campaigns")
        assert main(["campaign", "run", "--spec", spec, "--dir", root,
                     "--trace"]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", f"{root}/perf-mini"]) == 0
        out = capsys.readouterr().out
        table = out.split("Per-stage latency (wall):\n", 1)[1]
        header, *rows = table.split("\n\n", 1)[0].splitlines()
        assert header.split() == [
            "stage", "entries", "total", "p50", "p90", "p99", "max"
        ]
        entries = {row.split()[0]: int(row.split()[1]) for row in rows}
        # Both scenarios entered every stage up to verification.
        for stage in ("baseline-prep", "context-prep", "generate",
                      "compile-correct", "execute-correct", "verify"):
            assert entries[stage] >= 2
