"""Trace aggregation and rendering (repro trace show|summarize)."""

from __future__ import annotations

import pytest

from repro.telemetry.summary import (
    collect_trace_paths,
    critical_path_report,
    percentile,
    render_critical_path,
    render_trace_show,
    render_trace_summary,
    summarize_traces,
    trace_critical_path,
)
from repro.telemetry.tracefile import TraceWriter, load_trace_file


def spans_for(app, wall, status="success", cached=False):
    return [
        {"id": 0, "name": "pipeline", "kind": "pipeline", "start": 0.0,
         "wall": wall, "attrs": {"status": status}},
        {"id": 1, "name": "generate", "kind": "stage", "start": 0.0,
         "wall": wall / 2, "parent": 0, "attrs": {"outcome": "proceed"}},
        {"id": 2, "name": "generate", "kind": "llm", "start": 0.0,
         "wall": wall / 4, "parent": 1,
         "attrs": {"purpose": "generate", "prompt_tokens": 10,
                   "completion_tokens": 5}},
        {"id": 3, "name": "compile", "kind": "compile", "start": 0.1,
         "wall": 0.01, "parent": 1, "attrs": {"ok": True, "cached": cached}},
        {"id": 4, "name": "execute", "kind": "exec", "start": 0.2,
         "wall": 0.05, "parent": 1,
         "attrs": {"ok": True,
                   "profile": {"steps": 100, "kernel_launches": 2,
                               "flat_launches": 2}}},
    ]


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "sess.trace.jsonl"
    with TraceWriter(path) as writer:
        writer.write_trace(
            {"model": "gpt4", "direction": "omp2cuda", "app": "fast"},
            spans_for("fast", 0.1, cached=True),
        )
        writer.write_trace(
            {"model": "gpt4", "direction": "omp2cuda", "app": "slow"},
            spans_for("slow", 0.9, status="output-mismatch"),
        )
    return path


class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0

    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0

    def test_percentile_interpolates(self):
        # The campaign speedup distribution's p50/p95 come from here too.
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile([3.0], 0.95) == 3.0
        assert percentile(values, 0.50) == pytest.approx(2.5)
        assert percentile(values, 0.95) == pytest.approx(3.85)
        assert percentile(values, 1.00) == 4.0


class TestCollectTracePaths:
    def test_trace_file_resolves_to_itself(self, trace_file):
        assert collect_trace_paths(trace_file) == [trace_file]

    def test_session_resolves_to_its_sidecar(self, trace_file, tmp_path):
        session = tmp_path / "sess.jsonl"
        session.write_text("", encoding="utf-8")
        assert collect_trace_paths(session) == [trace_file]

    def test_untraced_session_raises_with_a_hint(self, tmp_path):
        session = tmp_path / "bare.jsonl"
        session.write_text("", encoding="utf-8")
        with pytest.raises(FileNotFoundError, match="--trace"):
            collect_trace_paths(session)

    def test_directory_prefers_canonical_over_shard_traces(self, tmp_path):
        sessions = tmp_path / "sessions"
        sessions.mkdir()
        for name in ("v.trace.jsonl", "v.shard-0-of-2.trace.jsonl"):
            with TraceWriter(sessions / name):
                pass
        assert collect_trace_paths(tmp_path) == [sessions / "v.trace.jsonl"]

    def test_unmerged_campaign_falls_back_to_shard_traces(self, tmp_path):
        sessions = tmp_path / "sessions"
        sessions.mkdir()
        with TraceWriter(sessions / "v.shard-0-of-2.trace.jsonl"):
            pass
        assert collect_trace_paths(tmp_path) == [
            sessions / "v.shard-0-of-2.trace.jsonl"
        ]

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_trace_paths(tmp_path)

    def test_campaign_dir_with_empty_sessions_dir_raises(self, tmp_path):
        # A campaign directory created but never run with --trace.
        (tmp_path / "sessions").mkdir()
        (tmp_path / "manifest.json").write_text("{}", encoding="utf-8")
        with pytest.raises(FileNotFoundError, match="--trace"):
            collect_trace_paths(tmp_path)


class TestTruncatedTail:
    def test_truncated_trace_file_keeps_the_parsed_prefix(
        self, trace_file, tmp_path
    ):
        # A killed worker can die mid-line; everything before the torn
        # record must still summarize.
        truncated = tmp_path / "torn.trace.jsonl"
        text = trace_file.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        # Keep the header + first trace, tear the second trace record
        # mid-line.
        torn = lines[:2] + [lines[2][: len(lines[2]) // 2]]
        truncated.write_text("".join(torn), encoding="utf-8")
        data = load_trace_file(truncated)
        assert len(data["traces"]) == 1
        summary = summarize_traces([truncated])
        assert summary["traces"] == 1
        report = critical_path_report([truncated])
        assert report["scenarios"] == 1


class TestSummarize:
    def test_summary_aggregates_every_dimension(self, trace_file):
        summary = summarize_traces([trace_file])
        assert summary["traces"] == 2
        assert summary["stages"]["generate"]["entries"] == 2
        assert summary["stages"]["generate"]["max"] == pytest.approx(0.45)
        assert summary["llm"]["calls"] == 2
        assert summary["llm"]["calls_by_purpose"] == {"generate": 2}
        assert summary["llm"]["prompt_tokens"] == 20
        assert summary["compile"] == {
            "calls": 2, "cached": 1, "cache_rate": 0.5
        }
        assert summary["statuses"] == {"success": 1, "output-mismatch": 1}
        assert summary["exec"] == {
            "runs": 2, "failed": 0, "steps": 200, "launches": 4,
            "launches_by_path": {"flat": 4}, "atomics": 0,
            "barrier_waits": 0,
        }
        slowest = summary["slowest"]
        assert slowest[0]["scenario"]["app"] == "slow"
        assert slowest[0]["status"] == "output-mismatch"

    def test_top_limits_the_slowest_list(self, trace_file):
        assert len(summarize_traces([trace_file], top=1)["slowest"]) == 1


class TestSpanDerivedCounts:
    """Run outcomes and interpreter work come from the spans alone."""

    @staticmethod
    def summarize(tmp_path, *span_lists):
        path = tmp_path / "counts.trace.jsonl"
        with TraceWriter(path) as writer:
            for i, spans in enumerate(span_lists):
                writer.write_trace({"app": f"app{i}"}, spans)
        return summarize_traces([path])

    def test_statuses_and_failed_executions(self, tmp_path):
        failed = spans_for("b", 0.2, status="execute-failed")
        failed[4]["attrs"] = dict(failed[4]["attrs"], ok=False)
        summary = self.summarize(
            tmp_path, spans_for("a", 0.1), failed, spans_for("c", 0.3)
        )
        assert summary["statuses"] == {"success": 2, "execute-failed": 1}
        assert sum(summary["statuses"].values()) == summary["traces"]
        assert summary["exec"]["runs"] == 3
        assert summary["exec"]["failed"] == 1

    def test_trace_without_leaves_counts_status_only(self, tmp_path):
        summary = self.summarize(tmp_path, spans_for("x", 0.1)[:1])
        assert summary["statuses"] == {"success": 1}
        assert summary["llm"]["calls"] == 0
        assert summary["compile"]["calls"] == 0
        assert summary["exec"] == {
            "runs": 0, "failed": 0, "steps": 0, "launches": 0,
            "launches_by_path": {}, "atomics": 0, "barrier_waits": 0,
        }

    def test_work_is_summed_from_exec_profiles(self, tmp_path):
        spans = spans_for("x", 0.1)
        spans[4]["attrs"] = {"ok": True, "profile": {
            "steps": 50, "kernel_launches": 2, "atomics": 7,
            "barrier_waits": 12, "flat_launches": 1, "barrier_launches": 1,
            "slow_launches": 0, "omp_launches": 0,
        }}
        ex = self.summarize(tmp_path, spans, spans)["exec"]
        assert ex["steps"] == 100
        assert ex["launches"] == 4
        assert ex["atomics"] == 14
        assert ex["barrier_waits"] == 24
        # Zero-launch paths are left out.
        assert ex["launches_by_path"] == {"flat": 2, "barrier": 2}

    def test_exec_span_without_a_profile_counts_the_run_only(self, tmp_path):
        spans = spans_for("x", 0.1)
        spans[4]["attrs"] = {"ok": True}
        ex = self.summarize(tmp_path, spans)["exec"]
        assert (ex["runs"], ex["steps"], ex["launches"]) == (1, 0, 0)


class TestCriticalPath:
    def test_attributes_leaf_walls_and_overhead(self):
        trace = {
            "scenario": {"app": "x"},
            "spans": spans_for("x", 1.0),
        }
        row = trace_critical_path(trace)
        # llm 0.25, compile 0.01, exec 0.05 -> overhead 0.69 dominates.
        assert row["walls"]["llm"] == pytest.approx(0.25)
        assert row["walls"]["compile"] == pytest.approx(0.01)
        assert row["walls"]["exec"] == pytest.approx(0.05)
        assert row["walls"]["overhead"] == pytest.approx(0.69)
        assert row["dominant"] == "overhead"

    def test_dominant_leaf_wins_over_overhead(self):
        spans = spans_for("x", 1.0)
        spans[2]["wall"] = 0.9  # the llm leaf now dominates
        row = trace_critical_path({"scenario": {}, "spans": spans})
        assert row["dominant"] == "llm"

    def test_empty_trace_charges_nothing(self):
        row = trace_critical_path({"scenario": {}, "spans": []})
        assert row["wall"] == 0.0
        assert set(row["walls"].values()) == {0.0}

    def test_report_aggregates_counts_and_fractions(self, trace_file):
        report = critical_path_report([trace_file])
        assert report["scenarios"] == 2
        assert sum(report["dominant_counts"].values()) == 2
        fractions = report["mean_fractions"]
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-3)
        assert report["total_wall"] == pytest.approx(1.0)

    def test_render_lists_buckets_and_slowest(self, trace_file):
        text = render_critical_path(critical_path_report([trace_file]))
        assert "critical path over 2 scenario(s)" in text
        for bucket in ("llm", "compile", "exec", "overhead"):
            assert bucket in text
        assert "Slowest scenarios" in text
        assert "gpt4/omp2cuda/slow" in text

    def test_render_respects_top(self, trace_file):
        text = render_critical_path(critical_path_report([trace_file]), top=1)
        assert text.count("dominant=") == 1


class TestRendering:
    def test_summary_text_mentions_every_section(self, trace_file):
        text = render_trace_summary(summarize_traces([trace_file]))
        assert "2 trace(s)" in text
        assert "Statuses: output-mismatch=1, success=1" in text
        assert "Executions: 2 (0 failed)" in text
        assert "launches by path: flat=4" in text
        assert "atomics: 0 · barrier waits: 0" in text
        assert "Per-stage latency" in text
        assert "LLM calls: 2" in text
        assert "cache rate" in text
        assert "Slowest traces" in text
        assert "gpt4/omp2cuda/slow" in text

    def test_show_renders_indented_span_trees(self, trace_file):
        text = render_trace_show([trace_file])
        assert "trace 0 · gpt4/omp2cuda/fast" in text
        assert "  pipeline (pipeline)" in text
        assert "    generate (stage)" in text
        assert "      compile (compile)" in text

    def test_show_respects_the_limit(self, trace_file):
        text = render_trace_show([trace_file], limit=1)
        assert "trace 0" in text and "trace 1" not in text
        assert "truncated" in text
