"""Round-trip serialization of pipeline result records."""

from __future__ import annotations

import json

import pytest

from repro.hecbench import get_app
from repro.llm.profiles import CellPlan
from repro.llm.simulated import SimulatedLLM
from repro.minilang.source import Dialect
from repro.pipeline import build_pipeline
from repro.pipeline.results import Attempt, LassiResult, Status


def _rt(result: LassiResult) -> LassiResult:
    """to_dict -> JSON text -> from_dict, as a session file would."""
    return LassiResult.from_dict(json.loads(json.dumps(result.to_dict())))


class TestAttemptRoundTrip:
    def test_full_fields(self):
        a = Attempt(index=3, kind="compile-correction", code="int main(){}",
                    compiled=True, executed=False, stderr="boom")
        b = Attempt.from_dict(a.to_dict())
        assert b == a

    def test_none_code_survives(self):
        a = Attempt(index=0, kind="initial", code=None)
        assert Attempt.from_dict(a.to_dict()) == a


class TestLassiResultRoundTrip:
    def test_handcrafted_failure(self):
        r = LassiResult(
            status="compile-failed",
            source_dialect="omp",
            target_dialect="cuda",
            model="gpt4",
            generated_code="__global__ void k() {}",
            self_corrections=2,
            attempts=[
                Attempt(index=0, kind="initial", code="bad", stderr="err"),
                Attempt(index=1, kind="compile-correction", code="worse"),
            ],
            prompt_tokens=1234,
            failure_detail="did not compile",
        )
        assert _rt(r) == r

    def test_real_pipeline_result(self):
        app = get_app("layout")
        llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA, plan=CellPlan())
        pipeline = build_pipeline(llm, Dialect.OMP, Dialect.CUDA)
        result = pipeline.run(
            app.omp_source,
            reference_target_code=app.cuda_source,
            args=app.args,
            work_scale=app.work_scale,
            launch_scale=app.launch_scale,
        )
        assert result.ok
        back = _rt(result)
        assert back == result
        # the metrics projection survives the trip too
        assert back.metrics() == result.metrics()

    def test_dict_is_json_safe(self):
        r = LassiResult(status="no-code", source_dialect="cuda",
                        target_dialect="omp", model="deepseek")
        json.dumps(r.to_dict())  # must not raise


class TestProfileField:
    """The runtime-profile block is telemetry: timings-only, compare=False."""

    def _result_with_profile(self):
        app = get_app("layout")
        llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA, plan=CellPlan())
        pipeline = build_pipeline(llm, Dialect.OMP, Dialect.CUDA)
        result = pipeline.run(
            app.omp_source,
            reference_target_code=app.cuda_source,
            args=app.args,
            work_scale=app.work_scale,
            launch_scale=app.launch_scale,
        )
        assert result.ok
        return result

    def test_successful_run_scores_a_profile(self):
        result = self._result_with_profile()
        assert result.profile is not None
        gen = result.profile["generated"]
        assert gen["steps"] > 0 and gen["kernel_launches"] > 0
        assert result.profile["reference"]["steps"] > 0
        assert result.profile["step_ratio"] > 0

    def test_profile_stays_out_of_session_bytes(self):
        result = self._result_with_profile()
        assert "profile" not in result.to_dict()
        assert "profile" in result.to_dict(include_timings=True)

    def test_profile_round_trips_under_timings(self):
        result = self._result_with_profile()
        data = json.loads(json.dumps(result.to_dict(include_timings=True)))
        back = LassiResult.from_dict(data)
        assert back.profile == result.profile
        # compare=False: equality ignores the telemetry block either way.
        assert back == result

    def test_speedup_matches_the_ratio_column(self):
        # The Ratio column is the one speedup figure; the profile block
        # does not recompute it, but its 9dp-rounded sim_seconds agree
        # with it to float noise.
        result = self._result_with_profile()
        assert "speedup" not in result.profile
        profiles = result.profile
        assert (
            profiles["reference"]["sim_seconds"]
            / profiles["generated"]["sim_seconds"]
        ) == pytest.approx(result.ratio, rel=1e-6)


class TestStatusEnum:
    """The str-enum must serialize to the exact historical literals."""

    #: Frozen: changing any of these breaks every session/cache on disk.
    LITERALS = {
        Status.SUCCESS: "success",
        Status.NO_CODE: "no-code",
        Status.COMPILE_FAILED: "compile-failed",
        Status.EXECUTE_FAILED: "execute-failed",
        Status.OUTPUT_MISMATCH: "output-mismatch",
    }

    def test_every_member_frozen(self):
        assert set(Status) == set(self.LITERALS)
        for member, literal in self.LITERALS.items():
            assert member.value == literal
            assert str(member) == literal            # no "Status.X" leak
            assert f"{member}" == literal            # format() too
            assert json.dumps(member) == f'"{literal}"'

    def test_round_trip_is_identity(self):
        for member, literal in self.LITERALS.items():
            assert Status(literal) is member
            assert Status(json.loads(json.dumps(member))) is member

    def test_plain_string_comparisons_still_work(self):
        r = LassiResult(status=Status.SUCCESS, source_dialect="omp",
                        target_dialect="cuda", model="gpt4")
        assert r.status == "success"
        assert r.ok
        legacy = LassiResult(status="success", source_dialect="omp",
                             target_dialect="cuda", model="gpt4")
        assert legacy.ok
        assert legacy == r

    def test_to_dict_emits_plain_str(self):
        r = LassiResult(status=Status.OUTPUT_MISMATCH, source_dialect="omp",
                        target_dialect="cuda", model="gpt4")
        payload = r.to_dict()["status"]
        assert payload == "output-mismatch"
        assert type(payload) is str  # not the enum subclass
        back = LassiResult.from_dict(r.to_dict())
        assert back.status is Status.OUTPUT_MISMATCH

    def test_session_line_bytes_are_stable(self):
        r = LassiResult(status=Status.COMPILE_FAILED, source_dialect="omp",
                        target_dialect="cuda", model="gpt4")
        line = json.dumps(r.to_dict(), sort_keys=True)
        assert '"status": "compile-failed"' in line
