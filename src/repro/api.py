"""Stable, high-level facade over the LASSI reproduction.

Four entry points cover the common workflows; everything the CLI does is
expressible through them, and their signatures are the package's
compatibility surface:

* :func:`build_pipeline` — assemble the stage-graph pipeline for one
  (LLM, direction) and run it on raw source text;
* :func:`translate` — one-call translation of a suite application
  (builds the seeded simulated LLM and the pipeline for you);
* :func:`evaluate` — the §V experiment grid (or any subset), parallel,
  resumable, cacheable;
* :func:`run_campaign` / :func:`build_campaign` — declarative ablation
  sweeps over the grid.

Example::

    from repro import api
    from repro.pipeline.events import StageFinished

    result = api.translate("layout", model="gpt4", direction="omp2cuda")
    results = api.evaluate(models=["gpt4"], jobs=4)
    campaign = api.run_campaign("knowledge-ablation")
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import (
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    get_preset,
    merge_manifests,
)
from repro.experiments.store import SqliteCacheStore, open_store
from repro.experiments.runner import ExperimentRunner, Scenario, ScenarioResult
from repro.experiments.session import RunSession
from repro.hecbench import AppSpec, Suite, all_apps, get_app
from repro.minilang.source import Dialect
from repro.pipeline.baseline import BaselinePreparer
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import build_pipeline
from repro.pipeline.results import LassiResult
from repro.telemetry.profile import profile_from_execution, regression_gate
from repro.telemetry.summary import (
    collect_trace_paths,
    critical_path_report,
)
from repro.toolchain import Executor

__all__ = [
    "build_campaign",
    "build_pipeline",
    "critical_path",
    "evaluate",
    "merge_campaign",
    "open_cache_store",
    "perf_regress",
    "profile_baselines",
    "run_campaign",
    "translate",
]

#: Defaults shared with the CLI.
DEFAULT_PROFILE = "paper"
DEFAULT_SEED = 2024


# build_pipeline is the engine's assembly function re-exported verbatim —
# one signature, no facade copy to drift.


def translate(
    app: Union[str, AppSpec],
    model: str = "gpt4",
    direction: str = "omp2cuda",
    profile: str = DEFAULT_PROFILE,
    seed: int = DEFAULT_SEED,
    config: Optional[PipelineConfig] = None,
    suite: Union[str, Suite, None] = None,
) -> LassiResult:
    """Translate one suite application under one simulated model.

    ``app`` may be a name (resolved against ``suite``, or the default
    suite-wide lookup when ``suite`` is None — synthetic names like
    ``synth-stencil-d1-s0`` regenerate their sources) or a resolved
    :class:`~repro.hecbench.AppSpec`.
    """
    spec = app if isinstance(app, AppSpec) else get_app(app, suite=suite)
    runner = ExperimentRunner(config=config, profile=profile, seed=seed)
    scenario = Scenario(model_key=model, direction=direction, app_name=spec.name)
    return runner.run_scenario(scenario, app=spec).result


def evaluate(
    models: Optional[Sequence[str]] = None,
    directions: Optional[Sequence[str]] = None,
    apps: Optional[Sequence[str]] = None,
    profile: str = DEFAULT_PROFILE,
    seed: int = DEFAULT_SEED,
    config: Optional[PipelineConfig] = None,
    suite: Union[str, Suite, None] = None,
    jobs: Union[int, str] = 1,
    session: Optional[RunSession] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[ScenarioResult], None]] = None,
    trace: bool = False,
) -> List[ScenarioResult]:
    """Run the evaluation grid (every argument optional, None = full axis).

    A thin veneer over :class:`~repro.experiments.runner.ExperimentRunner`:
    ``jobs=1`` runs the scenarios in the calling thread, more runs them on
    worker processes (``0``/``"auto"``: one per core); sessions
    persist/resume completed scenarios, and the cache replays identical
    cells.  ``trace=True`` records telemetry spans for every executed
    scenario and, when a session is given, writes them to a
    ``.trace.jsonl`` sidecar next to the session log (the session JSONL
    itself stays byte-deterministic).
    """
    runner = ExperimentRunner(
        config=config,
        profile=profile,
        seed=seed,
        jobs=jobs,
        session=session,
        cache=cache,
        suite=suite,
        trace=trace,
    )
    return runner.run(
        models=models, directions=directions, apps=apps, progress=progress
    )


def open_cache_store(
    store: Union[str, Path, SqliteCacheStore],
) -> SqliteCacheStore:
    """Open a cache store from a URI, path, or open store.

    Accepts ``sqlite:<path>`` or a bare path (both name one sqlite file),
    or an already-open :class:`~repro.experiments.store.SqliteCacheStore`
    (returned unchanged).
    """
    return open_store(store)


def build_campaign(
    spec: Union[str, CampaignSpec],
    root: Union[str, Path] = "campaigns",
    jobs: Union[int, str] = 1,
    executor: Optional[Executor] = None,
    log: Optional[Callable[[str], None]] = None,
    cache_store: Union[str, Path, SqliteCacheStore, None] = None,
    shard: Union[str, tuple, None] = None,
    trace: bool = False,
) -> CampaignRunner:
    """Prepare a campaign runner (``spec`` may be a preset name).

    ``cache_store`` routes scenario results through a shared store
    (``sqlite:`` URI, path, or open store) instead of the campaign's own
    ``cache.db``; ``shard`` (``"i/N"`` or ``(i, N)``) makes the runner
    execute only its slice of the variant×scenario cells and write a
    partial ``manifest.shard-i-of-N.json`` that :func:`merge_campaign`
    later fuses.  ``trace=True`` writes a ``.trace.jsonl`` sidecar next
    to every cell session.
    """
    resolved = get_preset(spec) if isinstance(spec, str) else spec
    return CampaignRunner(
        resolved, root=root, jobs=jobs, executor=executor,
        log=log, cache_store=cache_store, shard=shard, trace=trace,
    )


def run_campaign(
    spec: Union[str, CampaignSpec],
    root: Union[str, Path] = "campaigns",
    jobs: Union[int, str] = 1,
    executor: Optional[Executor] = None,
    log: Optional[Callable[[str], None]] = None,
    progress: Optional[Callable[[ScenarioResult], None]] = None,
    cache_store: Union[str, Path, SqliteCacheStore, None] = None,
    shard: Union[str, tuple, None] = None,
    trace: bool = False,
) -> CampaignResult:
    """Run a declarative ablation sweep into its campaign directory.

    ``spec`` may be a built-in preset name (``"knowledge-ablation"``) or a
    :class:`~repro.experiments.campaign.CampaignSpec`.  Fully resumable:
    re-running replays finished cells from their sessions and shared
    cells from the cache.  See :func:`build_campaign` for the shared
    ``cache_store``, distributed ``shard``, and telemetry ``trace``
    knobs.
    """
    return build_campaign(
        spec, root=root, jobs=jobs, executor=executor,
        log=log, cache_store=cache_store, shard=shard, trace=trace,
    ).run(progress=progress)


def profile_baselines(
    apps: Optional[Sequence[Union[str, AppSpec]]] = None,
    dialects: Sequence[str] = ("cuda", "omp"),
    suite: Union[str, Suite, None] = None,
    executor: Optional[Executor] = None,
) -> Dict[str, Any]:
    """Deterministic runtime profiles of the suite's *original* programs.

    Compiles and executes each application's source in each requested
    dialect (exactly the §III-A baseline preparation) and condenses every
    run into a :class:`~repro.telemetry.profile.RuntimeProfile`.  The
    interpreter is deterministic, so the returned snapshot —
    ``{"profiles": {"<app>/<dialect>": {...}}}`` — is byte-stable across
    processes and machines and can be committed as a perf baseline for
    ``repro perf regress``.
    """
    specs = [
        a if isinstance(a, AppSpec) else get_app(a, suite=suite)
        for a in (apps if apps is not None else all_apps(suite))
    ]
    preparer = BaselinePreparer(executor=executor)
    profiles: Dict[str, Any] = {}
    for spec in specs:
        for name in dialects:
            dialect = Dialect(name)
            baseline = preparer.prepare(
                spec.source(dialect),
                dialect,
                args=spec.args,
                work_scale=spec.work_scale,
                launch_scale=spec.launch_scale,
            )
            runtime = profile_from_execution(baseline.execution)
            if runtime is not None:
                profiles[f"{spec.name}/{dialect.value}"] = runtime.to_dict()
    return {"profiles": profiles}


def perf_regress(
    baseline: Union[str, Path],
    current: Union[str, Path],
    tolerance: Optional[float] = None,
) -> Tuple[Dict[str, Any], bool]:
    """Diff two profile snapshots; returns ``(report, ok)``.

    ``baseline`` / ``current`` may each be a ``BENCH_*.json`` artifact
    with a ``"profiles"`` block, a campaign ``manifest.json`` (per-cell
    ``perf`` summaries), or a bare snapshot written by
    :func:`profile_baselines`.  ``ok`` is False when any counter
    regressed beyond ``tolerance`` (default 10%, or
    ``REPRO_PERF_TOLERANCE``) or when coverage shrank — the CI gate
    turns that into a non-zero exit.
    """
    return regression_gate(baseline, current, tolerance)


def critical_path(target: Union[str, Path]) -> Dict[str, Any]:
    """Critical-path attribution over a trace file or campaign directory.

    ``target`` is a ``.trace.jsonl`` file, a session file with a trace
    sidecar, or a campaign directory (canonical and shard sidecars are
    discovered the same way ``repro trace summarize`` does).  Returns
    the :func:`~repro.telemetry.summary.critical_path_report` dict:
    per-trace dominant buckets, aggregate dominant counts, and mean
    wall-share per bucket (llm / compile / exec / overhead).
    """
    return critical_path_report(collect_trace_paths(target))


def merge_campaign(directory: Union[str, Path]) -> CampaignResult:
    """Fuse a sharded campaign directory into its canonical artifacts.

    ``directory`` is one campaign directory holding every shard's
    ``manifest.shard-i-of-N.json`` and shard-suffixed sessions (copied
    together from the hosts that ran them).  Refuses on missing shards,
    mismatched specs/grids/config fingerprints, or overlapping/incomplete
    scenario coverage; on success writes ``manifest.json`` plus canonical
    per-cell sessions exactly as an unsharded run would have.
    """
    return merge_manifests(directory)
