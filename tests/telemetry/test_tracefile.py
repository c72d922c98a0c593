"""Trace-file writer, tolerant reader and shard merge."""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.tracefile import (
    TRACE_FORMAT_VERSION,
    TraceWriter,
    iter_trace_records,
    load_trace_file,
    merge_trace_files,
    trace_path_for,
)

SPANS = [{"id": 0, "name": "pipeline", "kind": "pipeline", "start": 0.0,
          "wall": 0.5, "attrs": {"status": "success"}}]


def scenario(n):
    return {"model": "gpt4", "direction": "omp2cuda", "app": f"app{n}"}


def record_kinds(path):
    return [r["record"] for r in iter_trace_records(path)]


class TestTracePath:
    def test_session_to_sidecar(self):
        assert trace_path_for("sessions/run.jsonl") == Path(
            "sessions/run.trace.jsonl"
        )

    def test_shard_session_keeps_its_shard_suffix(self):
        assert trace_path_for("v-seed1.shard-0-of-2.jsonl").name == (
            "v-seed1.shard-0-of-2.trace.jsonl"
        )


class TestTraceWriter:
    def test_header_and_trace_records_only(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        with TraceWriter(path) as writer:
            assert writer.write_trace(scenario(0), SPANS) == 0
            assert writer.write_trace(scenario(1), SPANS) == 1
        data = load_trace_file(path)
        assert data["header"]["format"] == TRACE_FORMAT_VERSION
        assert [t["trace_id"] for t in data["traces"]] == [0, 1]
        assert data["traces"][0]["scenario"]["app"] == "app0"
        assert record_kinds(path) == ["header", "trace", "trace"]

    def test_lines_are_compact_sorted_json(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        with TraceWriter(path) as writer:
            writer.write_trace(scenario(0), SPANS)
        for line in path.read_text(encoding="utf-8").splitlines():
            parsed = json.loads(line)
            assert line == json.dumps(
                parsed, sort_keys=True, separators=(",", ":")
            )

    def test_resume_continues_trace_ids(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        with TraceWriter(path) as writer:
            writer.write_trace(scenario(0), SPANS)
        with TraceWriter(path, resume=True) as writer:
            assert writer.write_trace(scenario(1), SPANS) == 1
        data = load_trace_file(path)
        assert [t["trace_id"] for t in data["traces"]] == [0, 1]

    def test_fresh_open_truncates_a_stale_file(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        with TraceWriter(path) as writer:
            writer.write_trace(scenario(0), SPANS)
        with TraceWriter(path) as writer:  # resume=False: a fresh run
            pass
        assert load_trace_file(path)["traces"] == []

    def test_close_is_idempotent(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.trace.jsonl")
        writer.close()
        writer.close()
        assert record_kinds(tmp_path / "t.trace.jsonl") == ["header"]


class TestTolerantReader:
    def test_truncated_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        with TraceWriter(path) as writer:
            writer.write_trace(scenario(0), SPANS)
            writer.write_trace(scenario(1), SPANS)
        lines = path.read_text(encoding="utf-8").splitlines()
        # A reaped worker dies mid-line: keep header + first trace, then
        # half of the second trace's record.
        truncated = lines[0] + "\n" + lines[1] + "\n" + lines[2][: 30]
        path.write_text(truncated, encoding="utf-8")
        data = load_trace_file(path)
        assert [t["trace_id"] for t in data["traces"]] == [0]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(iter_trace_records(tmp_path / "absent.trace.jsonl")) == []

    def test_legacy_trailing_metrics_record_is_skipped(self, tmp_path):
        # Older writers closed every file with a metrics-snapshot record.
        path = tmp_path / "old.trace.jsonl"
        with TraceWriter(path) as writer:
            writer.write_trace(scenario(0), SPANS)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"record": "metrics", "snapshot": {
                "counters": {"pipeline.runs{status=success}": 1.0},
                "gauges": {}, "histograms": {},
            }}) + "\n")
        data = load_trace_file(path)
        assert set(data) == {"header", "traces"}
        assert [t["trace_id"] for t in data["traces"]] == [0]
        merged = tmp_path / "merged.trace.jsonl"
        assert merge_trace_files([path], merged) == 1
        assert record_kinds(merged) == ["header", "trace"]


class TestMerge:
    def test_merge_remaps_ids(self, tmp_path):
        shards = []
        for i in range(2):
            shard = tmp_path / f"v.shard-{i}-of-2.trace.jsonl"
            with TraceWriter(shard) as writer:
                writer.write_trace(scenario(i * 2), SPANS)
                writer.write_trace(scenario(i * 2 + 1), SPANS)
            shards.append(shard)
        out = tmp_path / "v.trace.jsonl"
        assert merge_trace_files(shards, out) == 4
        data = load_trace_file(out)
        assert [t["trace_id"] for t in data["traces"]] == [0, 1, 2, 3]
        assert [t["scenario"]["app"] for t in data["traces"]] == [
            "app0", "app1", "app2", "app3"
        ]
        assert record_kinds(out) == ["header"] + ["trace"] * 4

    def test_merge_of_no_shards_writes_an_empty_canonical_file(self, tmp_path):
        out = tmp_path / "empty.trace.jsonl"
        assert merge_trace_files([], out) == 0
        data = load_trace_file(out)
        assert data["traces"] == []
        assert data["header"]["format"] == TRACE_FORMAT_VERSION
