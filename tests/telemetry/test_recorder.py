"""Flight recorder: bounded ring, dumps, SIGTERM plumbing."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.pipeline.events import StageFinished, StageStarted
from repro.telemetry import recorder as recorder_module
from repro.telemetry.recorder import (
    FLIGHT_DIR_ENV,
    FlightRecorder,
    configure_flight_recorder,
    get_flight_recorder,
    install_sigterm_handler,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestRing:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder(StageStarted(stage=f"s{i}"))
        assert len(recorder) == 3

    def test_events_capture_dataclass_fields_with_offsets(self):
        recorder = FlightRecorder()
        recorder(StageFinished(stage="generate", seconds=0.25,
                               outcome="proceed"))
        [record] = list(recorder._events)
        assert record["event"] == "StageFinished"
        assert record["stage"] == "generate"
        assert record["outcome"] == "proceed"
        assert record["t"] >= 0.0

    def test_long_string_fields_are_truncated(self):
        recorder = FlightRecorder()
        recorder(StageFinished(stage="x" * 2000, seconds=0.0, outcome="halt"))
        [record] = list(recorder._events)
        assert len(record["stage"]) == 501  # 500 chars + ellipsis

    def test_clear_drops_events_and_context(self):
        recorder = FlightRecorder()
        recorder(StageStarted(stage="s"))
        recorder.set_context(scenario="x")
        recorder.clear()
        assert len(recorder) == 0


class TestDump:
    def test_dump_writes_events_context_and_exception(self, tmp_path):
        recorder = FlightRecorder(directory=tmp_path)
        recorder(StageStarted(stage="generate"))
        recorder.set_context(scenario={"app": "layout"})
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            path = recorder.dump("pipeline-exception", exc)
        assert path == tmp_path / f"flight-{os.getpid()}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["reason"] == "pipeline-exception"
        assert payload["context"] == {"scenario": {"app": "layout"}}
        assert payload["events"][0]["event"] == "StageStarted"
        assert payload["exception"]["type"] == "RuntimeError"
        assert "boom" in payload["exception"]["traceback"]

    def test_dump_honours_the_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path / "flights"))
        recorder = FlightRecorder()
        path = recorder.dump("sigterm")
        assert path is not None and path.parent == tmp_path / "flights"

    def test_dump_never_raises_on_unwritable_directory(self, tmp_path):
        target = tmp_path / "file-not-dir"
        target.write_text("x", encoding="utf-8")
        recorder = FlightRecorder(directory=target / "nested")
        assert recorder.dump("sigterm") is None


class TestProfiledExecutionDump:
    def test_dump_triggered_from_inside_a_profiled_execution(self, tmp_path):
        # A diagnostic subscriber may dump the ring the moment an
        # execution finishes — with the profiling layer on, that dump
        # must carry the runtime profile of the execution that fired it.
        from repro.hecbench import get_app
        from repro.llm.profiles import CellPlan
        from repro.llm.simulated import SimulatedLLM
        from repro.minilang.source import Dialect
        from repro.pipeline import build_pipeline
        from repro.pipeline.events import ExecutionFinished

        recorder = FlightRecorder(directory=tmp_path)
        dumps = []

        def on_event(event):
            recorder(event)
            if isinstance(event, ExecutionFinished) and event.profile:
                dumps.append(recorder.dump("profiled-execution"))

        llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA, plan=CellPlan())
        pipeline = build_pipeline(
            llm, Dialect.OMP, Dialect.CUDA, subscribers=[on_event]
        )
        app = get_app("layout")
        result = pipeline.run(
            app.omp_source, reference_target_code=app.cuda_source,
            args=app.args, work_scale=app.work_scale,
            launch_scale=app.launch_scale,
        )
        assert result.ok
        assert dumps and dumps[0] is not None
        payload = json.loads(dumps[0].read_text(encoding="utf-8"))
        assert payload["reason"] == "profiled-execution"
        execs = [
            e for e in payload["events"] if e["event"] == "ExecutionFinished"
        ]
        assert execs and isinstance(execs[-1].get("profile"), dict)
        assert execs[-1]["profile"]["steps"] > 0


class TestGlobals:
    def test_get_flight_recorder_is_a_stable_singleton(self):
        assert get_flight_recorder() is get_flight_recorder()

    def test_configure_rebuilds_the_singleton(self, tmp_path, monkeypatch):
        # Restore the process-wide recorder afterwards: one left pointing at
        # this test's directory would catch later tests' dumps.
        monkeypatch.setattr(recorder_module, "_RECORDER", recorder_module._RECORDER)
        recorder = configure_flight_recorder(tmp_path, capacity=7)
        assert get_flight_recorder() is recorder
        assert recorder.capacity == 7 and recorder.directory == tmp_path


class TestSigterm:
    def test_install_refuses_off_the_main_thread(self):
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(install_sigterm_handler).result() is False

    def test_install_on_main_thread_and_restore(self):
        previous = signal.getsignal(signal.SIGTERM)
        try:
            assert install_sigterm_handler() is True
            assert signal.getsignal(signal.SIGTERM) is not previous
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_sigterm_dumps_the_ring_and_preserves_exit_semantics(
        self, tmp_path
    ):
        script = (
            "import os, signal\n"
            "from repro.pipeline.events import StageStarted\n"
            "from repro.telemetry.recorder import (\n"
            "    configure_flight_recorder, install_sigterm_handler)\n"
            "recorder = configure_flight_recorder(os.environ['FD'])\n"
            "recorder(StageStarted(stage='generate'))\n"
            "assert install_sigterm_handler()\n"
            "os.kill(os.getpid(), signal.SIGTERM)\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC, FD=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, timeout=60,
        )
        # The handler re-raises after dumping: still killed by SIGTERM.
        assert proc.returncode == -signal.SIGTERM, proc.stderr.decode()
        dumps = list(tmp_path.glob("flight-*.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text(encoding="utf-8"))
        assert payload["reason"] == "sigterm"
        assert payload["events"][0]["event"] == "StageStarted"
