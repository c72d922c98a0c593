"""The §V experiment: 10 apps x 4 LLMs x 2 directions = 80 pipeline runs.

Each scenario instantiates a :class:`SimulatedLLM` with the Tables VI/VII
cell plan for (model, direction, app) — or a seeded stochastic plan when
``profile="stochastic"`` — and drives the full LASSI pipeline.  Baselines
are shared through one :class:`BaselinePreparer`, mirroring §IV: each
HeCBench test case is compiled and executed once with fixed arguments and
reused across all models.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.hecbench import AppSpec, Suite, resolve_suite
from repro.llm.profiles import CUDA2OMP, OMP2CUDA, CellPlan, paper_plan
from repro.llm.registry import all_models
from repro.llm.simulated import SimulatedLLM
from repro.metrics.aggregate import ScenarioMetrics
from repro.minilang.source import Dialect
from repro.pipeline import BaselinePreparer, PipelineConfig, build_pipeline
from repro.pipeline.results import LassiResult
from repro.telemetry import SpanTracer, get_flight_recorder
from repro.toolchain import Executor
from repro.utils.rng import derive_seed

DIRECTIONS: Dict[str, Tuple[Dialect, Dialect]] = {
    OMP2CUDA: (Dialect.OMP, Dialect.CUDA),
    CUDA2OMP: (Dialect.CUDA, Dialect.OMP),
}


@dataclass(frozen=True)
class Scenario:
    model_key: str
    direction: str  # "omp2cuda" | "cuda2omp"
    app_name: str

    @property
    def key(self) -> Tuple[str, str, str]:
        """Stable identity used by sessions to detect completed scenarios."""
        return (self.model_key, self.direction, self.app_name)

    def to_dict(self) -> Dict[str, str]:
        return {
            "model_key": self.model_key,
            "direction": self.direction,
            "app_name": self.app_name,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Scenario":
        return cls(
            model_key=data["model_key"],
            direction=data["direction"],
            app_name=data["app_name"],
        )


@dataclass
class ScenarioResult:
    scenario: Scenario
    result: LassiResult

    @property
    def metrics(self) -> ScenarioMetrics:
        return self.result.metrics()

    def to_dict(self, include_timings: bool = False) -> Dict[str, Any]:
        """Serialize; ``include_timings`` carries the telemetry fields
        (spans, profile block) — off by default so sessions/caches stay
        deterministic.
        """
        return {
            "scenario": self.scenario.to_dict(),
            "result": self.result.to_dict(include_timings=include_timings),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            result=LassiResult.from_dict(data["result"]),
        )


class ExperimentRunner:
    """Runs the paper's evaluation grid (or any subset of it)."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        profile: str = "paper",
        seed: int = 2024,
        executor: Optional[Executor] = None,
        baselines: Optional[BaselinePreparer] = None,
        suite: Union[str, Suite, None] = None,
        trace: bool = False,
    ) -> None:
        if profile not in ("paper", "stochastic"):
            raise ValueError(f"unknown profile {profile!r}")
        self.config = config or PipelineConfig()
        self.profile = profile
        self.seed = seed
        #: The application suite the grid enumerates (default: Table IV).
        self.suite = resolve_suite(suite)
        self.executor = executor or Executor()
        # A campaign shares one preparer across every variant runner so each
        # (app, dialect) baseline is still built exactly once campaign-wide.
        self.baselines = baselines or BaselinePreparer(self.executor)
        #: Number of pipelines actually executed (cache/session replays are
        #: not counted) — campaign cache tests assert on this.
        self.pipeline_runs = 0
        self._counter_lock = threading.Lock()
        #: Telemetry switch: when on, every executed scenario is traced
        #: (a :class:`~repro.telemetry.SpanTracer` + the process flight
        #: recorder ride the pipeline's event bus) and its spans land on
        #: ``result.spans``.  Off by default — the bookkeeping budget.
        self.trace = trace

    @property
    def config_fingerprint(self) -> str:
        """Content hash of ``self.config`` (see PipelineConfig.fingerprint)."""
        return self.config.fingerprint()

    # ------------------------------------------------------------------
    def scenarios(
        self,
        models: Optional[Iterable[str]] = None,
        directions: Optional[Iterable[str]] = None,
        apps: Optional[Iterable[str]] = None,
    ) -> List[Scenario]:
        model_keys = list(models) if models else [m.key for m in all_models()]
        dir_keys = list(directions) if directions else [OMP2CUDA, CUDA2OMP]
        # An explicit app filter is validated against (and canonicalized
        # by) the suite, so a name outside the configured suite fails here
        # instead of silently executing via a wider lookup.
        app_names = (
            [self.suite.get(a).name for a in apps]
            if apps else self.suite.app_names()
        )
        return [
            Scenario(model_key=m, direction=d, app_name=a)
            for d in dir_keys
            for m in model_keys
            for a in app_names
        ]

    # ------------------------------------------------------------------
    def run_scenario(self, scenario: Scenario, app: Optional[AppSpec] = None) -> ScenarioResult:
        if app is None:
            # Strictly suite-scoped: a scenario naming an app outside the
            # configured suite is an error, not a silent widening.  Callers
            # with an out-of-suite app in hand pass it explicitly.
            app = self.suite.get(scenario.app_name)
        source_dialect, target_dialect = DIRECTIONS[scenario.direction]
        with self._counter_lock:
            self.pipeline_runs += 1

        plan: Optional[CellPlan] = None
        if self.profile == "paper":
            plan = paper_plan(scenario.model_key, scenario.direction, app.name)
        llm_seed = self.seed
        if plan is None:
            # Unplanned scenario (stochastic profile, or an app beyond the
            # 80 paper cells — e.g. a generated one): salt the stream with
            # the app name so each app draws its own behaviour instead of
            # every app in the grid sharing one (model, direction) plan.
            llm_seed = derive_seed(self.seed, "scenario", app.name)
        llm = SimulatedLLM(
            scenario.model_key,
            source_dialect,
            target_dialect,
            plan=plan,
            seed=llm_seed,
        )
        tracer: Optional[SpanTracer] = None
        subscribers = []
        if self.trace:
            tracer = SpanTracer()
            recorder = get_flight_recorder()
            recorder.set_context(scenario=scenario.to_dict())
            subscribers = [tracer, recorder]
        # Each scenario assembles its own stage graph (cheap: the stages
        # are thin objects over the shared executor/baseline services).
        pipeline = build_pipeline(
            llm,
            source_dialect,
            target_dialect,
            config=self.config,
            executor=self.executor,
            baseline_preparer=self.baselines,
            subscribers=subscribers,
        )
        try:
            result = pipeline.run(
                app.source(source_dialect),
                reference_target_code=app.source(target_dialect),
                args=app.args,
                work_scale=app.work_scale,
                launch_scale=app.launch_scale,
            )
        except Exception as exc:
            if self.trace:
                # A dead worker must be debuggable from artifacts alone.
                get_flight_recorder().dump("pipeline-exception", exc)
            raise
        if tracer is not None:
            result.spans = tracer.drain()
        return ScenarioResult(scenario=scenario, result=result)

    # ------------------------------------------------------------------
    def run(
        self,
        models: Optional[Iterable[str]] = None,
        directions: Optional[Iterable[str]] = None,
        apps: Optional[Iterable[str]] = None,
        progress: Optional[callable] = None,
    ) -> List[ScenarioResult]:
        out: List[ScenarioResult] = []
        for scenario in self.scenarios(models, directions, apps):
            res = self.run_scenario(scenario)
            out.append(res)
            if progress is not None:
                progress(res)
        return out
