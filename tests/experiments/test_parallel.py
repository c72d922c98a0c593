"""Grid runner jobs, run sessions, and resume semantics.

The load-bearing properties:

* worker processes are *observationally identical* to the caller's
  thread — same ordering, statuses and metrics for ``jobs=1``, ``jobs=4``
  and a resumed session;
* at ``jobs=1`` scenarios share the runner's baselines: each (app,
  dialect) is compiled exactly once however many scenarios use it;
* resuming a session re-executes only unrecorded scenarios (asserted via
  baseline compile counts).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    ExperimentRunner,
    RunSession,
    SessionError,
)
from repro.experiments.runner import Scenario
from repro.llm.profiles import CUDA2OMP, OMP2CUDA

#: 2 models x 2 apps x 2 directions = 8 scenarios, shared by the suite.
SLICE = dict(models=["gpt4", "wizardcoder"], apps=["matrix-rotate", "pathfinder"])


def _signature(results):
    """Everything the tables/statistics consume, per scenario, in order."""
    return [(r.scenario, r.result.status, r.metrics) for r in results]


@pytest.fixture(scope="module")
def serial_results():
    return ExperimentRunner().run(**SLICE)


class TestDeterminism:
    def test_jobs1_matches_serial(self, serial_results):
        got = ExperimentRunner(jobs=1).run(**SLICE)
        assert _signature(got) == _signature(serial_results)

    def test_jobs4_matches_serial(self, serial_results):
        got = ExperimentRunner(jobs=4).run(**SLICE)
        assert _signature(got) == _signature(serial_results)

    def test_resumed_session_matches_serial(self, serial_results, tmp_path):
        path = tmp_path / "grid.jsonl"
        # First leg records half the grid (one model), then "dies".
        ExperimentRunner(jobs=2, session=RunSession(path)).run(
            models=["gpt4"], apps=SLICE["apps"]
        )
        # Second leg resumes and completes the full slice.
        resumed = ExperimentRunner(
            jobs=2, session=RunSession(path, resume=True)
        ).run(**SLICE)
        assert _signature(resumed) == _signature(serial_results)

    def test_stochastic_profile_deterministic_across_jobs(self):
        kw = dict(models=["codestral", "deepseek"], directions=[OMP2CUDA],
                  apps=["layout", "entropy"])
        a = ExperimentRunner(profile="stochastic", seed=7, jobs=1).run(**kw)
        b = ExperimentRunner(profile="stochastic", seed=7, jobs=4).run(**kw)
        assert _signature(a) == _signature(b)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=-1)
        with pytest.raises(ValueError):
            ExperimentRunner(jobs="many")

    def test_auto_jobs_resolve_to_cpu_count(self):
        import os

        cores = os.cpu_count() or 1
        assert ExperimentRunner(jobs="auto").jobs == cores
        assert ExperimentRunner(jobs=0).jobs == cores

    def test_worker_failure_cancels_queued_scenarios(self):
        executed = []

        class FailingRunner(ExperimentRunner):
            def run_scenario(self, scenario, app=None):
                executed.append(scenario.app_name)
                if scenario.app_name == "layout":
                    raise RuntimeError("boom")
                return super().run_scenario(scenario, app)

        runner = FailingRunner(jobs=1)
        with pytest.raises(RuntimeError):
            runner.run(models=["gpt4"], directions=[OMP2CUDA],
                       apps=["layout", "entropy", "bsearch", "jacobi"])
        # At jobs=1 the failure ends the grid: the scenarios after it never
        # run instead of burning the rest of the grid's wall-clock.
        assert executed == ["layout"]


class TestBaselineSharing:
    def test_full_slice_compiles_per_app_dialect(self):
        runner = ExperimentRunner(jobs=1)
        runner.run(**SLICE)
        # 2 apps x 2 dialects, regardless of 8 scenarios touching them.
        assert runner.baselines.compile_count == 4


class TestRunSession:
    def test_records_are_valid_jsonl(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ExperimentRunner(jobs=2, session=RunSession(path)).run(
            models=["gpt4"], directions=[OMP2CUDA], apps=["layout", "entropy"]
        )
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert lines[0]["type"] == "session"
        assert lines[0]["profile"] == "paper" and lines[0]["seed"] == 2024
        scenario_lines = [ln for ln in lines if ln["type"] == "scenario"]
        assert len(scenario_lines) == 2
        assert {ln["scenario"]["app_name"] for ln in scenario_lines} == {
            "layout", "entropy"
        }

    def test_resume_skips_recorded_scenarios(self, tmp_path):
        path = tmp_path / "s.jsonl"
        kw = dict(models=["gpt4"], directions=[OMP2CUDA])
        first = ExperimentRunner(jobs=1, session=RunSession(path))
        first.run(apps=["jacobi"], **kw)
        assert first.baselines.compile_count == 2  # jacobi omp + cuda

        second = ExperimentRunner(
            jobs=1, session=RunSession(path, resume=True)
        )
        results = second.run(apps=["jacobi", "layout"], **kw)
        # jacobi came from the session: only layout's baselines were built,
        # i.e. the finished scenario was not re-executed.
        assert second.baselines.compile_count == 2  # layout omp + cuda
        assert [r.scenario.app_name for r in results] == ["jacobi", "layout"]
        assert all(r.result.status for r in results)

    def test_resume_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        runner = ExperimentRunner(jobs=1, session=RunSession(path))
        runner.run(models=["gpt4"], directions=[OMP2CUDA],
                   apps=["layout", "entropy"])
        # Simulate a hard kill mid-append: chop the last line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])

        session = RunSession(path, resume=True)
        assert session.dropped_lines == 1
        assert len(session) == 1  # the intact record survived
        resumed = ExperimentRunner(jobs=2, session=session)
        results = resumed.run(models=["gpt4"], directions=[OMP2CUDA],
                              apps=["layout", "entropy"])
        assert len(results) == 2

    def test_resume_refuses_mismatched_profile_or_seed(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ExperimentRunner(
            jobs=1, profile="stochastic", seed=3, session=RunSession(path)
        ).run(models=["gpt4"], directions=[OMP2CUDA], apps=["layout"])

        clash = ExperimentRunner(
            jobs=1, profile="stochastic", seed=4,
            session=RunSession(path, resume=True),
        )
        with pytest.raises(SessionError):
            clash.run(models=["gpt4"], directions=[OMP2CUDA], apps=["layout"])

    def test_resume_into_missing_directory(self, tmp_path):
        # First --resume invocation before any run exists must not crash.
        path = tmp_path / "nested" / "dir" / "s.jsonl"
        runner = ExperimentRunner(
            jobs=1, session=RunSession(path, resume=True)
        )
        results = runner.run(models=["gpt4"], directions=[OMP2CUDA],
                             apps=["layout"])
        assert len(results) == 1 and path.exists()

    def test_load_drops_structurally_broken_records(self, tmp_path):
        path = tmp_path / "s.jsonl"
        runner = ExperimentRunner(jobs=1, session=RunSession(path))
        runner.run(models=["gpt4"], directions=[OMP2CUDA], apps=["layout"])
        with path.open("a") as handle:
            handle.write("123\n")  # valid JSON, not a record
            handle.write('{"type": "scenario", "scenario": {}}\n')  # missing keys
        session = RunSession(path, resume=True)
        assert session.dropped_lines == 2
        assert len(session) == 1  # the real record survived

    def test_resume_refuses_records_without_header(self, tmp_path):
        path = tmp_path / "s.jsonl"
        runner = ExperimentRunner(jobs=1, session=RunSession(path))
        runner.run(models=["gpt4"], directions=[OMP2CUDA], apps=["layout"])
        # Corrupt the header line: the remaining records have no provenance.
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "session"
        path.write_text("\n".join(["{broken"] + lines[1:]) + "\n")
        with pytest.raises(SessionError):
            RunSession(path, resume=True)

    def test_fresh_session_refuses_to_clobber_existing_artifact(self, tmp_path):
        # Forgetting --resume must not wipe checkpointed results.
        path = tmp_path / "s.jsonl"
        path.write_text("precious checkpoints\n")
        with pytest.raises(SessionError):
            RunSession(path)  # resume=False
        assert path.read_text() == "precious checkpoints\n"

    def test_fresh_session_accepts_empty_existing_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("")
        session = RunSession(path)  # resume=False
        assert len(session) == 0

    def test_contains_and_get(self, tmp_path):
        path = tmp_path / "s.jsonl"
        runner = ExperimentRunner(jobs=1, session=RunSession(path))
        runner.run(models=["gpt4"], directions=[OMP2CUDA], apps=["layout"])
        session = RunSession(path, resume=True)
        hit = Scenario("gpt4", OMP2CUDA, "layout")
        miss = Scenario("gpt4", CUDA2OMP, "layout")
        assert hit in session and miss not in session
        assert session.get(hit).result.status == "success"
        assert session.get(miss) is None
