"""The §V experiment: 10 apps x 4 LLMs x 2 directions = 80 pipeline runs.

Each scenario instantiates a :class:`SimulatedLLM` with the Tables VI/VII
cell plan for (model, direction, app) — or a seeded stochastic plan when
``profile="stochastic"`` — and drives the full LASSI pipeline.  Baselines
are shared through one :class:`BaselinePreparer`, mirroring §IV: each
HeCBench test case is compiled and executed once with fixed arguments and
reused across all models.

Every scenario is an independent, CPU-bound pipeline run.
:meth:`ExperimentRunner.run` executes the pending ones in the caller's
thread, in enumeration order and sharing the runner's
:class:`BaselinePreparer`, when one worker would do (``jobs=1``, or one
pending scenario).  Otherwise a :class:`ProcessPoolExecutor` runs them:
its workers rebuild the runner from a picklable spec (``type(self)``,
``PipelineConfig``, profile, seed, suite) and ship
:meth:`ScenarioResult.to_dict` payloads back, so the runner class must be
importable, and a script under the spawn start method needs an
``if __name__ == "__main__":`` guard.  Either way the results keep
enumeration order, and each passes through one finish step: trace
sidecar, cache, session, progress.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.hecbench import AppSpec, Suite, resolve_suite
from repro.llm.profiles import CUDA2OMP, OMP2CUDA, CellPlan, paper_plan
from repro.llm.registry import all_models
from repro.llm.simulated import SimulatedLLM
from repro.metrics.aggregate import ScenarioMetrics
from repro.minilang.source import Dialect
from repro.pipeline import BaselinePreparer, PipelineConfig, build_pipeline
from repro.pipeline.results import LassiResult
from repro.telemetry import (
    SpanTracer,
    TraceWriter,
    get_flight_recorder,
    get_logger,
    install_sigterm_handler,
    trace_path_for,
)
from repro.toolchain import Executor
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # both modules import this one
    from repro.experiments.cache import ResultCache
    from repro.experiments.session import RunSession

logger = get_logger("experiments.runner")

#: Upper bound on worker processes.  Latency-bound runs (a hosted LLM's
#: round-trips) gain from modest oversubscription; past a few per core
#: only start-up cost and scheduler noise grow.
MAX_JOBS = max(8, 4 * (os.cpu_count() or 1))


def resolve_jobs(jobs: Union[int, str]) -> int:
    """Normalize a jobs spelling: ``"auto"`` / ``0`` mean one per core.

    Returns a positive int; raises :class:`ValueError` for anything else
    (negative counts, unknown strings).
    """
    if isinstance(jobs, bool):
        # bool is an int subclass: False would otherwise match `jobs == 0`.
        raise ValueError(f"jobs must be a positive int, 0 or 'auto', got {jobs!r}")
    if jobs == "auto" or jobs == 0:
        return os.cpu_count() or 1
    if not isinstance(jobs, int):
        raise ValueError(f"jobs must be a positive int, 0 or 'auto', got {jobs!r}")
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 means auto), got {jobs}")
    return jobs


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
    """Runs the paper's evaluation grid (or any subset of it).

    ``jobs`` is the worker count for :meth:`run` (``0`` or ``"auto"``:
    one per core); ``session`` receives every result as it completes and
    supplies the ones a resumed grid already recorded; ``cache`` replays
    identical cells and stores new ones.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        profile: str = "paper",
        seed: int = 2024,
        executor: Optional[Executor] = None,
        baselines: Optional[BaselinePreparer] = None,
        suite: Union[str, Suite, None] = None,
        trace: bool = False,
        jobs: Union[int, str] = 1,
        session: Optional["RunSession"] = None,
        cache: Optional["ResultCache"] = None,
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
        self.jobs = min(resolve_jobs(jobs), MAX_JOBS)
        self.session = session
        self.cache = cache

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
        progress: Optional[Callable[[ScenarioResult], None]] = None,
        session: Optional["RunSession"] = None,
        scenario_indexes: Optional[List[int]] = None,
    ) -> List[ScenarioResult]:
        """Run the grid; results in scenario-enumeration order.

        ``scenario_indexes`` selects positions within the enumeration (a
        campaign shard); ``session`` overrides the runner's own.
        """
        session = session or self.session
        fingerprint = self.config_fingerprint
        if session is not None:
            session.bind(self.profile, self.seed, fingerprint)

        scenarios = self.scenarios(models, directions, apps)
        if scenario_indexes is not None:
            scenarios = [scenarios[i] for i in scenario_indexes]
        results: List[Optional[ScenarioResult]] = [None] * len(scenarios)

        pending: List[int] = []
        for i, scenario in enumerate(scenarios):
            recorded = session.get(scenario) if session is not None else None
            if recorded is not None:
                results[i] = recorded
                continue
            if self.cache is not None:
                replayed = self.cache.get(
                    scenario, self.profile, self.seed, fingerprint
                )
                if replayed is not None:
                    results[i] = replayed
                    if session is not None:
                        session.record(replayed)
                    continue
            pending.append(i)

        trace_writer: Optional[TraceWriter] = None
        if self.trace and session is not None:
            # The timing sidecar rides next to the session log; the
            # session JSONL itself stays byte-deterministic.
            trace_writer = TraceWriter(
                trace_path_for(session.path), resume=session.resume
            )

        def finish(i: int, res: ScenarioResult) -> None:
            results[i] = res
            if trace_writer is not None and res.result.spans:
                trace_writer.write_trace(
                    {
                        "model": res.scenario.model_key,
                        "direction": res.scenario.direction,
                        "app": res.scenario.app_name,
                    },
                    res.result.spans,
                )
            if self.cache is not None:
                self.cache.put(res, self.profile, self.seed, fingerprint)
            if session is not None:
                session.record(res)
            if progress is not None:
                progress(res)

        try:
            self._run_pending(scenarios, pending, finish)
        finally:
            if trace_writer is not None:
                trace_writer.close()
        return results

    def _run_pending(
        self,
        scenarios: List[Scenario],
        pending: List[int],
        finish: Callable[[int, ScenarioResult], None],
    ) -> None:
        """Execute ``scenarios[i]`` for each pending ``i``, finishing each.

        One worker runs them here, in order; more run them on worker
        processes and finish them in completion order.
        """
        workers = min(self.jobs, len(pending))
        if workers <= 1:
            if pending:
                logger.debug(
                    "running %d scenario(s) in the caller's thread (jobs=%d)",
                    len(pending), self.jobs,
                )
            for i in pending:
                finish(i, self.run_scenario(scenarios[i]))
            return
        logger.debug(
            "running %d scenario(s) on %d worker processes (jobs=%d)",
            len(pending), workers, self.jobs,
        )
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_process_worker,
            initargs=(
                type(self), self.config, self.profile, self.seed,
                self.suite, self.trace,
            ),
        ) as pool:
            futures = {
                pool.submit(_run_scenario_in_worker, scenarios[i].to_dict()): i
                for i in pending
            }
            try:
                for future in as_completed(futures):
                    # Worker exceptions surface here.
                    res = ScenarioResult.from_dict(future.result())
                    # The pipeline ran in the worker, so the worker's
                    # counter incremented, not ours; keep campaign
                    # accounting (executed vs replayed) correct here.
                    with self._counter_lock:
                        self.pipeline_runs += 1
                    finish(futures[future], res)
            except BaseException:
                # Don't let queued scenarios burn a full grid's wall-clock
                # during shutdown; in-flight ones finish and are lost.
                for f in futures:
                    f.cancel()
                raise


# ----------------------------------------------------------------------
# Worker-process plumbing.  The initializer rebuilds the runner once per
# process, then the worker serves scenario dicts; results travel back as
# plain dicts so nothing non-picklable crosses the pipe.

_WORKER_RUNNER: Optional[ExperimentRunner] = None


def _init_process_worker(
    runner_class: type,
    config: PipelineConfig,
    profile: str,
    seed: int,
    suite: Suite,
    trace: bool = False,
) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner_class(
        config=config, profile=profile, seed=seed, suite=suite, trace=trace
    )
    if trace:
        # A reaped worker (SIGTERM from a shard manager) dumps its flight
        # ring before dying, so the shard is debuggable from artifacts.
        install_sigterm_handler()


def _run_scenario_in_worker(scenario_dict: Dict[str, str]) -> dict:
    assert _WORKER_RUNNER is not None, "worker initializer did not run"
    result = _WORKER_RUNNER.run_scenario(Scenario.from_dict(scenario_dict))
    # Spans and the profile block ride along so the parent's results carry
    # the same telemetry as in-thread ones (sessions and the cache still
    # serialize without them — byte-determinism).
    return result.to_dict(include_timings=True)
