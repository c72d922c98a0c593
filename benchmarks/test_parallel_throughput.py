"""Wall-clock speedup of the worker-process grid over the serial one.

The real §V workload is bounded by LLM round-trips (network latency to a
hosted model or inference time on local hardware), which worker processes
overlap.  The :class:`SimulatedLLM` responds instantly, so to measure what
parallelism buys we re-introduce a fixed per-scenario latency modelling the
round-trip — sized like a short hosted-model completion, large enough to
dominate the pure-Python compute.

Two legs run over the same 8-scenario grid with fresh runners:

* ``serial``  — ``jobs=1``: the scenarios run in the caller's thread (the
  baseline);
* ``process`` — ``jobs=4``: worker processes overlap the latency *and*
  spread the compute across cores (on a single core only the latency
  overlaps).

Emits ``BENCH_parallel_throughput.json`` (picked up as a CI artifact) with
both timings, the speedup, the stage-graph overhead figure and the
process-wide compile-cache counters.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict

import pytest

from repro.api import build_pipeline
from repro.experiments import ExperimentRunner
from repro.hecbench import get_app
from repro.llm.profiles import CellPlan
from repro.llm.simulated import SimulatedLLM
from repro.minilang.source import Dialect
from repro.pipeline.events import StageFinished
from repro.toolchain import compile_cache_stats

#: Modelled LLM round-trip per scenario (seconds).
SCENARIO_LATENCY = 1.5
#: Worker count for the process leg.
JOBS = 4
#: The measured grid: 2 models x 1 direction x 4 cheap apps = 8 scenarios.
GRID = dict(
    models=["gpt4", "codestral"],
    directions=["omp2cuda"],
    apps=["layout", "pathfinder", "matrix-rotate", "bsearch"],
)
#: Floor for the process leg (the headline number; typically >3x).
MIN_PROCESS_SPEEDUP = 2.0
#: Ceiling on the stage-graph engine's own bookkeeping (event publication,
#: outcome dispatch) as a fraction of per-scenario wall time — the
#: redesign must not tax the hot path.
MAX_STAGE_GRAPH_OVERHEAD = 0.05
#: Translations measured for the stage breakdown and overhead figure.
OVERHEAD_RUNS = 10

BENCH_ARTIFACT = Path("BENCH_parallel_throughput.json")


def _stage_graph_profile():
    """Per-stage wall time, and the fraction of wall time *not* in stages.

    A bus subscriber sums ``StageFinished.seconds`` per stage over
    ``OVERHEAD_RUNS`` successful translations (each enters every stage).
    Everything between stage boundaries — event publication, outcome
    dispatch, context setup — is stage-graph machinery the monolithic seed
    pipeline did not have; the engine's per-stage clocks measure it
    directly as (wall - staged) / wall.
    """
    totals: Dict[str, float] = {}

    def collect(event):
        if isinstance(event, StageFinished):
            totals[event.stage] = totals.get(event.stage, 0.0) + event.seconds

    app = get_app("layout")
    llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA, plan=CellPlan())
    pipeline = build_pipeline(llm, Dialect.OMP, Dialect.CUDA,
                              subscribers=[collect])
    wall = 0.0
    for _ in range(OVERHEAD_RUNS):
        start = time.perf_counter()
        result = pipeline.run(
            app.omp_source,
            reference_target_code=app.cuda_source,
            args=app.args,
            work_scale=app.work_scale,
            launch_scale=app.launch_scale,
        )
        wall += time.perf_counter() - start
        assert result.ok
    breakdown = {
        stage: {
            "total_s": round(total, 4),
            "mean_s": round(total / OVERHEAD_RUNS, 6),
            "runs": OVERHEAD_RUNS,
        }
        for stage, total in totals.items()
    }
    return breakdown, (wall - sum(totals.values())) / wall


class _LatencyModelRunner(ExperimentRunner):
    """Grid runner with a fixed LLM round-trip latency per scenario.

    Module-level on purpose: worker processes rebuild the runner from its
    class, so the latency model applies inside them too.
    """

    def run_scenario(self, scenario, app=None):
        time.sleep(SCENARIO_LATENCY)
        return super().run_scenario(scenario, app)


def _timed_grid(jobs: int):
    runner = _LatencyModelRunner(jobs=jobs)
    start = time.perf_counter()
    results = runner.run(**GRID)
    elapsed = time.perf_counter() - start
    return results, elapsed


@pytest.mark.bench
def test_parallel_grid_beats_serial():
    serial_results, serial_s = _timed_grid(jobs=1)
    process_results, process_s = _timed_grid(jobs=JOBS)

    # Parallelism must not change the science: same cells, same statuses.
    assert [r.scenario for r in process_results] == [
        r.scenario for r in serial_results
    ]
    assert [r.result.status for r in process_results] == [
        r.result.status for r in serial_results
    ]

    process_speedup = serial_s / process_s

    # Per-stage latency attribution (generation vs. correction vs.
    # toolchain), from StageFinished events of latency-free translations.
    stage_breakdown, overhead_fraction = _stage_graph_profile()

    BENCH_ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "parallel_throughput",
                "scenarios": len(serial_results),
                "scenario_latency_s": SCENARIO_LATENCY,
                "jobs": JOBS,
                "serial_seconds": round(serial_s, 4),
                "process_seconds": round(process_s, 4),
                "process_speedup": round(process_speedup, 3),
                # Headline number: worker processes at jobs=4.
                "speedup": round(process_speedup, 3),
                "stage_breakdown": stage_breakdown,
                "stage_graph_overhead_fraction": round(overhead_fraction, 5),
                "compile_cache": compile_cache_stats(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    assert overhead_fraction < MAX_STAGE_GRAPH_OVERHEAD, (
        f"stage-graph machinery costs {overhead_fraction:.1%} of "
        f"per-scenario wall time (budget {MAX_STAGE_GRAPH_OVERHEAD:.0%})"
    )
    assert process_speedup > MIN_PROCESS_SPEEDUP, (
        f"process grid ({process_s:.2f}s with jobs={JOBS}) should beat "
        f"serial ({serial_s:.2f}s); measured speedup {process_speedup:.2f}x"
    )
