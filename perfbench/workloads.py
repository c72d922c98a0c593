"""The benchmark's workloads: set-up, one pass of ops, and output checks.

Every workload runs serially in this process (``jobs=1``, one caller,
closed loop: the next op starts when the previous one returns).

* ``paper-grid``: the 80-scenario §V grid under the paper profile.  Each
  pass gets a fresh :class:`ExperimentRunner` and an empty compile memo, so
  the 20 baseline builds happen inside the pass, as they do for a user.
  They run at the start of the pass rather than inside whichever scenario
  the seed orders first, so op latencies do not depend on the seed.
* ``correction-storm``: the 8 paper-plan scenarios that spend at least 34
  correction rounds.  Baselines are built in set-up; passes clear the
  compile memo, so every pass does the same work.
* ``campaign-replay``: the ``knowledge-ablation`` preset runs cold into a
  sqlite store during set-up; each op replays the whole campaign into a
  fresh directory from that store (no pipeline runs).

The seed only permutes order (scenarios within a pass; models and apps
within the campaign spec).  The set of outcomes never changes with it.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.campaign import (
    MANIFEST_NAME,
    CampaignRunner,
    get_preset,
    normalize_manifest,
)
from repro.experiments.runner import DIRECTIONS, ExperimentRunner, Scenario
from repro.hecbench import resolve_suite
from repro.pipeline import BaselinePreparer
from repro.toolchain import clear_compile_cache, compile_cache_stats

from tracing import GUEST_SEAMS, GuestCounter, Instrumented, SpanRecorder

#: §V of the paper: 32/40 OMP->CUDA and 34/40 CUDA->OMP translations give
#: the expected output.
PAPER_EXPECTED_OUTPUTS = {"omp2cuda": 32, "cuda2omp": 34}

#: Paper-plan scenarios spending >= 34 correction rounds (model, direction, app).
STORM_SCENARIOS = [
    ("codestral", "cuda2omp", "jacobi"),
    ("codestral", "cuda2omp", "pathfinder"),
    ("deepseek", "cuda2omp", "pathfinder"),
    ("deepseek", "omp2cuda", "colorwheel"),
    ("deepseek", "omp2cuda", "randomAccess"),
    ("gpt4", "omp2cuda", "dense-embedding"),
    ("gpt4", "omp2cuda", "randomAccess"),
    ("wizardcoder", "omp2cuda", "randomAccess"),
]

#: Interpreter counts, taken at the interpreter's seam on every pass.
INTERP_COUNTS = (
    "interp.steps",
    "interp.launches.flat",
    "interp.launches.barrier",
    "interp.launches.slow",
    "interp.launches.omp",
    "interp.killed",
)

#: Counts that must equal the values recorded in ``expected.json`` on every
#: pass, whatever the seed: guest cost (interpreter work), pipeline
#: behaviour and the compile memo's hit ratio.  A host speedup that moves
#: any of them changed the program's behaviour, not its speed.
GUEST_COUNTS = INTERP_COUNTS + (
    "pipeline.attempts",
    "pipeline.corrections",
    "toolchain.compile_cache_hit_ratio",
)

#: How often set-up is repeated to report its median.
SETUP_REPEATS = 3


def scenario_id(key: Tuple[str, ...]) -> str:
    return "/".join(key)


def outcome(result: Any) -> list:
    """The checked projection of one scenario's result."""
    return [str(result.status), result.self_corrections, result.verified, result.ratio]


@dataclasses.dataclass
class PassResult:
    """What one pass measured and found."""

    #: (start, end) clock readings of each op.
    op_windows: List[Tuple[float, float]]
    scenarios: int
    #: (start, end) of the pass's work: ops plus per-pass preparation, not
    #: the benchmark's own checks.
    window: Tuple[float, float]
    failed_ops: int
    #: Pass-level check failures (missing scenarios, wrong counts, ...).
    problems: List[str]
    #: Exact counts of the pass (guest cost, pipeline behaviour).
    counts: Dict[str, float]
    recorder: Optional[SpanRecorder] = None


class Workload:
    """Base: subclasses implement ``_setup_once`` and ``_pass``."""

    name = ""
    #: Ops a run needs at least; 100 puts >= 10 samples beyond p90.
    min_ops = 100
    setup_repeats = SETUP_REPEATS

    def __init__(self, seed: int, expected: Dict[str, Any], workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.expected = expected
        self.workdir = workdir
        self.setup_recorder: Optional[SpanRecorder] = None
        #: Check failures found during set-up.
        self.setup_problems: List[str] = []

    def setup(self, traced: bool) -> List[Tuple[float, float]]:
        """Run the declared set-up ``setup_repeats`` times; their windows.

        In a traced run the last repetition is traced, so counts made
        during set-up (store puts) are reported.
        """
        windows = []
        for i in range(self.setup_repeats):
            last = i == self.setup_repeats - 1
            recorder = SpanRecorder() if traced and last else None
            start = time.perf_counter()
            if recorder is not None:
                with Instrumented(recorder):
                    self._setup_once()
            else:
                self._setup_once()
            windows.append((start, time.perf_counter()))
            self.setup_recorder = recorder
        return windows

    def _setup_once(self) -> None:
        raise NotImplementedError

    def run_pass(self, traced: bool) -> PassResult:
        """One pass; a traced pass records spans, every pass counts guest cost."""
        if traced:
            recorder = SpanRecorder()
            with Instrumented(recorder):
                result = self._pass(recorder)
            result.recorder = recorder
            counter: Any = recorder
        else:
            counter = GuestCounter()
            with Instrumented(counter, GUEST_SEAMS):
                result = self._pass(None)
        for name in INTERP_COUNTS:
            result.counts[name] = counter.counts[name]
        result.problems.extend(self._check_counts(result.counts))
        return result

    def _pass(self, recorder: Optional[SpanRecorder]) -> PassResult:
        raise NotImplementedError

    def _check_counts(self, counts: Dict[str, float]) -> List[str]:
        want = self.expected.get("guest", {}).get(self.name, {})
        return [
            f"{name}: {counts[name]} per pass, expected {want.get(name)}"
            for name in GUEST_COUNTS
            if name in counts and counts[name] != want.get(name)
        ]

    def close(self) -> None:
        """Remove whatever the workload wrote."""


class GridWorkload(Workload):
    """Ops are scenarios; a pass is every scenario once, in seeded order."""

    scenario_keys: List[Tuple[str, str, str]] = []

    def __init__(self, seed: int, expected: Dict[str, Any], workdir: Path) -> None:
        super().__init__(seed, expected, workdir)
        self.scenarios = [Scenario(*key) for key in self.scenario_keys]
        self.want = expected.get("scenarios", {})

    def _fresh_runner(self) -> ExperimentRunner:
        raise NotImplementedError

    def _pass(self, recorder: Optional[SpanRecorder]) -> PassResult:
        order = list(self.scenarios)
        self.rng.shuffle(order)
        pass_start = time.perf_counter()
        clear_compile_cache()
        runner = self._fresh_runner()
        builds_before = runner.baselines.compile_count
        self._before_ops(runner)
        op_windows: List[Tuple[float, float]] = []
        verified = {direction: 0 for direction in DIRECTIONS}
        counts: Dict[str, float] = {"pipeline.attempts": 0, "pipeline.corrections": 0}
        failed = 0
        for i, scenario in enumerate(order):
            start, end, sr, exc = timed_op(recorder, i, lambda: runner.run_scenario(scenario))
            op_windows.append((start, end))
            if exc is not None:
                failed += 1
                print(f"op {scenario_id(scenario.key)} raised {exc!r}", flush=True)
                continue
            sid = scenario_id(scenario.key)
            got = outcome(sr.result)
            if got != self.want.get(sid):
                failed += 1
                print(f"op {sid}: outcome {got}, expected {self.want.get(sid)}",
                      flush=True)
            verified[scenario.direction] += bool(sr.result.verified)
            counts["pipeline.attempts"] += len(sr.result.attempts)
            counts["pipeline.corrections"] += sr.result.self_corrections
        window = (pass_start, time.perf_counter())
        counts["pipeline.baseline_builds"] = runner.baselines.compile_count - builds_before
        counts["toolchain.compile_cache_hit_ratio"] = compile_cache_stats()["hit_rate"]
        problems = self._check_pass(verified, runner)
        return PassResult(
            op_windows=op_windows,
            scenarios=len(order),
            window=window,
            failed_ops=failed,
            problems=problems,
            counts=counts,
        )

    def _before_ops(self, runner: ExperimentRunner) -> None:
        """Work a pass does before its first op (timed with the pass)."""

    def _check_pass(self, verified: Dict[str, int], runner: ExperimentRunner) -> List[str]:
        return []


def timed_op(
    recorder: Optional[SpanRecorder], op: int, fn: Callable[[], Any]
) -> Tuple[float, float, Any, Optional[Exception]]:
    """Run one op; (start, end, result, exception it raised or None)."""
    start = time.perf_counter()
    try:
        if recorder is None:
            result = fn()
        else:
            with recorder.op_span(op):
                result = fn()
    except Exception as exc:  # an op that raises is a failed op
        return start, time.perf_counter(), None, exc
    return start, time.perf_counter(), result, None


def _prepare_baselines(preparer: BaselinePreparer, suite: Any, app_names: List[str]) -> None:
    """Build both dialects' baselines the way the pipeline's prep stage asks."""
    for name in app_names:
        app = suite.get(name)
        for source_dialect, _target in DIRECTIONS.values():
            preparer.prepare(
                app.source(source_dialect), source_dialect, app.args,
                app.work_scale, app.launch_scale,
            )


class PaperGrid(GridWorkload):
    name = "paper-grid"
    #: Two passes (16 samples beyond p90).  Seeds reorder which op pays the
    #: compile-memo misses; two orders per run halve that noise.
    min_ops = 160

    def __init__(self, seed: int, expected: Dict[str, Any], workdir: Path) -> None:
        self.scenario_keys = [
            s.key for s in ExperimentRunner(profile="paper").scenarios()
        ]
        super().__init__(seed, expected, workdir)

    def _setup_once(self) -> None:
        # Suite resolution and grid enumeration: all a user does up front.
        self.suite = resolve_suite(None)
        ExperimentRunner(profile="paper", suite=self.suite).scenarios()

    def _fresh_runner(self) -> ExperimentRunner:
        return ExperimentRunner(profile="paper", suite=self.suite)

    def _before_ops(self, runner: ExperimentRunner) -> None:
        _prepare_baselines(runner.baselines, self.suite, self.suite.app_names())

    def _check_pass(self, verified: Dict[str, int], runner: ExperimentRunner) -> List[str]:
        problems = [
            f"{direction}: {verified[direction]}/40 expected outputs, paper has {n}/40"
            for direction, n in PAPER_EXPECTED_OUTPUTS.items()
            if verified[direction] != n
        ]
        if runner.baselines.compile_count != 2 * len(self.suite.app_names()):
            problems.append(f"{runner.baselines.compile_count} baseline builds per pass")
        return problems


class CorrectionStorm(GridWorkload):
    name = "correction-storm"
    scenario_keys = STORM_SCENARIOS
    #: 6 passes (5 samples beyond p90): 100 ops would take over a minute.
    min_ops = 48

    def _setup_once(self) -> None:
        clear_compile_cache()
        self.suite = resolve_suite(None)
        self.baselines = BaselinePreparer()
        _prepare_baselines(
            self.baselines, self.suite, sorted({app for _m, _d, app in STORM_SCENARIOS})
        )

    def _fresh_runner(self) -> ExperimentRunner:
        return ExperimentRunner(profile="paper", suite=self.suite, baselines=self.baselines)

    def _check_pass(self, verified: Dict[str, int], runner: ExperimentRunner) -> List[str]:
        if runner.pipeline_runs != len(STORM_SCENARIOS):
            return [f"{runner.pipeline_runs} pipeline runs per pass"]
        return []


class CampaignReplay(Workload):
    """Ops are whole-campaign replays from a store filled in set-up."""

    name = "campaign-replay"
    setup_repeats = 1  # the cold campaign is too long to repeat

    def __init__(self, seed: int, expected: Dict[str, Any], workdir: Path) -> None:
        super().__init__(seed, expected, workdir)
        preset = get_preset("knowledge-ablation")
        self.spec = dataclasses.replace(
            preset,
            models=self.rng.sample(preset.models, len(preset.models)),
            apps=self.rng.sample(preset.apps, len(preset.apps)),
        )
        self.root = workdir / "campaign-replay"
        self.store = f"sqlite:{self.root / 'store.sqlite'}"
        self.replays = 0

    def _setup_once(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        cold = CampaignRunner(self.spec, root=self.root / "cold", cache_store=self.store).run()
        want = self.expected.get("campaign", {})
        seen = set()
        for run in cold.runs:
            for sr in run.results:
                sid = scenario_id((run.variant.name,) + sr.scenario.key)
                seen.add(sid)
                got = outcome(sr.result)
                if got != want.get(sid):
                    self.setup_problems.append(
                        f"cold {sid}: outcome {got}, expected {want.get(sid)}"
                    )
        if seen != set(want):
            self.setup_problems.append("cold campaign ran a different scenario set")
        self.scenario_count = len(seen)
        self.cold_manifest = self._manifest(cold.directory)

    @staticmethod
    def _manifest(directory: Path) -> Dict[str, Any]:
        text = (directory / MANIFEST_NAME).read_text(encoding="utf-8")
        return normalize_manifest(json.loads(text))

    def _pass(self, recorder: Optional[SpanRecorder]) -> PassResult:
        self.replays += 1
        target = self.root / f"replay-{self.replays}"
        start, end, replay, exc = timed_op(
            recorder, self.replays,
            lambda: CampaignRunner(self.spec, root=target, cache_store=self.store).run(),
        )
        problems: List[str] = []
        if exc is not None:
            problems.append(f"replay raised {exc!r}")
        elif replay.total_pipeline_runs != 0:
            problems.append(f"replay ran {replay.total_pipeline_runs} pipelines")
        elif self._manifest(replay.directory) != self.cold_manifest:
            problems.append("replayed manifest differs from the cold one")
        shutil.rmtree(target, ignore_errors=True)
        return PassResult(
            op_windows=[(start, end)],
            scenarios=self.scenario_count,
            window=(start, end),
            failed_ops=1 if problems else 0,
            problems=problems,
            counts={},
        )

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PaperGrid, CorrectionStorm, CampaignReplay)}
