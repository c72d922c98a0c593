"""Parallel execution of the §V experiment grid.

The 80-scenario evaluation is embarrassingly parallel: every (model,
direction, app) cell is an independent pipeline run that shares only the
read-only app sources and the baseline cache.  :class:`ParallelExperimentRunner`
shards the grid across a worker pool while keeping three guarantees the
serial runner provides for free:

* **deterministic ordering** — results come back in scenario-enumeration
  order regardless of which worker finished first, so table renderers and
  downstream statistics see the exact same sequence as ``ExperimentRunner``;
* **single baseline build per app** — thread workers share one
  :class:`~repro.pipeline.BaselinePreparer`, whose per-key locks make
  concurrent first requests for the same baseline compile it exactly once
  (process workers each hold their own preparer + compile cache);
* **identical per-scenario behaviour** — each scenario constructs its own
  seeded :class:`SimulatedLLM` and pipeline, so statuses and metrics do not
  depend on ``jobs`` or ``backend`` (the determinism tests pin this).

Two backends are available:

* ``backend="thread"`` (default) — a :class:`ThreadPoolExecutor`.  Right
  for latency-bound work (real LLM round-trips) and zero-copy sharing of
  baselines, but the pure-Python pipeline compute is GIL-serialized.
* ``backend="process"`` — a :class:`ProcessPoolExecutor`.  Each worker
  process rebuilds runner state from a picklable spec (``PipelineConfig``,
  profile, seed, suite, and the concrete runner class) and ships
  :meth:`ScenarioResult.to_dict` payloads back; the parent deserializes
  them and feeds the same session/cache/progress plumbing.  This is what
  lets grid throughput scale with cores for CPU-bound simulated runs.

Pair either backend with a :class:`~repro.experiments.session.RunSession`
to persist every result as it completes and to resume an interrupted grid.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    Executor as _FuturesExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from typing import Dict, Iterable, List, Optional, Union

from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentRunner, Scenario, ScenarioResult
from repro.experiments.session import RunSession
from repro.hecbench import Suite
from repro.pipeline import BaselinePreparer, PipelineConfig
from repro.telemetry import (
    TraceWriter,
    get_logger,
    install_sigterm_handler,
    trace_path_for,
)
from repro.toolchain import Executor

logger = get_logger("experiments.parallel")

#: Upper bound on pool workers, derived from the machine: thread workers
#: are latency-bound (LLM round-trips) so modest oversubscription helps,
#: while anything past a few times the core count only adds scheduler noise.
MAX_JOBS = max(8, 4 * (os.cpu_count() or 1))

#: Recognized execution backends.
BACKENDS = ("thread", "process")


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


# ----------------------------------------------------------------------
# Process-backend worker plumbing.  The worker rebuilds an ExperimentRunner
# once per process (initializer) and then serves scenario dicts; results
# travel back as plain dicts so nothing non-picklable crosses the pipe.

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
    # Spans and the profile block ride along so the parent's in-memory
    # results carry the same telemetry as thread-backend ones (sessions and
    # the cache still serialize without them — byte-determinism).
    return result.to_dict(include_timings=True)


class ParallelExperimentRunner(ExperimentRunner):
    """Runs the evaluation grid on a worker pool, optionally session-backed.

    ``jobs=1`` degenerates to serial execution (still through the pool, so
    the code path is identical); ``jobs=0`` or ``jobs="auto"`` resolve to
    the machine's core count.  A ``session`` — or one passed to
    :meth:`run` — receives every :class:`ScenarioResult` as it completes;
    scenarios already recorded in a resumed session are *not* re-executed,
    their stored results are spliced into the output at the right position.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        profile: str = "paper",
        seed: int = 2024,
        executor: Optional[Executor] = None,
        jobs: Union[int, str] = 1,
        session: Optional[RunSession] = None,
        cache: Optional[ResultCache] = None,
        baselines: Optional[BaselinePreparer] = None,
        suite: Union[str, Suite, None] = None,
        backend: str = "thread",
        trace: bool = False,
    ) -> None:
        super().__init__(
            config=config, profile=profile, seed=seed, executor=executor,
            baselines=baselines, suite=suite, trace=trace,
        )
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.jobs = min(resolve_jobs(jobs), MAX_JOBS)
        self.backend = backend
        self.session = session
        self.cache = cache

    # ------------------------------------------------------------------
    def run(
        self,
        models: Optional[Iterable[str]] = None,
        directions: Optional[Iterable[str]] = None,
        apps: Optional[Iterable[str]] = None,
        progress: Optional[callable] = None,
        session: Optional[RunSession] = None,
        scenario_indexes: Optional[List[int]] = None,
    ) -> List[ScenarioResult]:
        session = session or self.session
        fingerprint = self.config_fingerprint
        if session is not None:
            session.bind(self.profile, self.seed, fingerprint)

        scenarios = self.scenarios(models, directions, apps)
        if scenario_indexes is not None:
            # A shard of the grid: the caller selects positions within the
            # deterministic enumeration order (campaign sharding computes
            # them from the shard spec).  Output order stays enumeration
            # order restricted to the subset.
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

        try:
            if pending:
                logger.debug(
                    "running %d scenario(s) on the %s backend (jobs=%d)",
                    len(pending), self.backend, self.jobs,
                )
                if self.backend == "process":
                    self._run_pool(
                        self._process_pool(len(pending)),
                        scenarios, pending, results,
                        session, progress, fingerprint, trace_writer,
                    )
                else:
                    self._run_pool(
                        ThreadPoolExecutor(
                            max_workers=min(self.jobs, len(pending)),
                            thread_name_prefix="repro-grid",
                        ),
                        scenarios, pending, results,
                        session, progress, fingerprint, trace_writer,
                    )
        finally:
            if trace_writer is not None:
                trace_writer.close()

        return list(results)

    # ------------------------------------------------------------------
    def _process_pool(self, pending_count: int) -> ProcessPoolExecutor:
        """A worker-process pool whose initializer rebuilds this runner.

        ``type(self)`` rides along so subclasses that override
        :meth:`run_scenario` (e.g. latency-model benchmark runners) keep
        their behaviour inside the workers — the class must therefore be
        importable/picklable (defined at module top level).
        """
        return ProcessPoolExecutor(
            max_workers=min(self.jobs, pending_count),
            initializer=_init_process_worker,
            initargs=(
                type(self), self.config, self.profile, self.seed,
                self.suite, self.trace,
            ),
        )

    def _run_pool(
        self,
        pool: _FuturesExecutor,
        scenarios: List[Scenario],
        pending: List[int],
        results: List[Optional[ScenarioResult]],
        session: Optional[RunSession],
        progress: Optional[callable],
        fingerprint: str,
        trace_writer: Optional[TraceWriter] = None,
    ) -> None:
        """Execute ``pending`` on ``pool``, streaming results as they land.

        Both backends share this loop: the thread backend submits
        :meth:`run_scenario` directly, the process backend submits the
        module-level worker shim and rehydrates the returned dict.  Either
        way every completed scenario is cached, recorded to the session and
        reported to ``progress`` immediately, and ``results`` is filled by
        original index so the final ordering is deterministic.
        """
        in_process = isinstance(pool, ProcessPoolExecutor)
        with pool:
            if in_process:
                futures = {
                    pool.submit(
                        _run_scenario_in_worker, scenarios[i].to_dict()
                    ): i
                    for i in pending
                }
            else:
                futures = {
                    pool.submit(self.run_scenario, scenarios[i]): i
                    for i in pending
                }
            try:
                for future in as_completed(futures):
                    i = futures[future]
                    res = future.result()  # worker exceptions surface here
                    if in_process:
                        res = ScenarioResult.from_dict(res)
                        # The pipeline ran in the worker, so the worker's
                        # counter incremented, not ours; keep campaign
                        # accounting (executed vs replayed) correct here.
                        with self._counter_lock:
                            self.pipeline_runs += 1
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
            except BaseException:
                # Don't let queued scenarios burn a full grid's wall-clock
                # during shutdown; in-flight ones finish and are lost.
                for f in futures:
                    f.cancel()
                raise
