"""Cost of the runtime-profiling layer, and the perf-gate's input.

Two deliverables, emitted as ``BENCH_perf_profile.json``:

* **collection overhead** — wall time of a grid with profile collection
  on (the default: every execution condensed into a
  :class:`~repro.telemetry.profile.RuntimeProfile` riding the
  ``ExecutionFinished`` event and the result's ``profile`` block) versus
  the same grid with both collection seams stubbed out: the median
  ratio over interleaved pairs of the two legs.  Must stay under
  :data:`MAX_PROFILE_OVERHEAD` — profiling is bookkeeping, not science.
* **the profiles block** — deterministic baseline profiles of the
  grid's applications (the same snapshot ``repro perf profile``
  builds).  The CI perf-gate job diffs this block against the committed
  ``benchmarks/perf_baseline.json`` with ``repro perf regress``; a
  drift beyond tolerance means execution cost semantics changed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro import api
from repro.experiments import ParallelExperimentRunner
from repro.pipeline import BaselinePreparer
from repro.pipeline.stages import finalize, loops

#: Ceiling on profiled-vs-stubbed grid wall time.
MAX_PROFILE_OVERHEAD = 0.05
#: The measured grid: 1 model x 1 direction x 4 apps = 4 scenarios.
GRID = dict(
    models=["gpt4"],
    directions=["omp2cuda"],
    apps=["layout", "pathfinder", "matrix-rotate", "bsearch"],
)

BENCH_ARTIFACT = Path("BENCH_perf_profile.json")


def _timed_grid(baselines) -> float:
    runner = ParallelExperimentRunner(jobs=1, baselines=baselines)
    start = time.perf_counter()
    results = runner.run(**GRID)
    elapsed = time.perf_counter() - start
    assert len(results) == 4
    return elapsed


def _disabled_grid(baselines) -> float:
    # Both collection seams are module-level precisely so this bench can
    # stub them and measure the difference.
    with pytest.MonkeyPatch.context() as stubs:
        stubs.setattr(
            loops, "_execution_profile_payload", lambda execution: None
        )
        stubs.setattr(
            finalize, "score_profiles", lambda reference, generated: None
        )
        return _timed_grid(baselines)


@pytest.mark.bench
def test_profile_collection_overhead_stays_under_budget(paired_overhead):
    baselines = BaselinePreparer()
    # Warm the shared baselines and the process-wide compile cache so
    # both timed legs pay identical toolchain costs.
    _timed_grid(baselines)

    sample = ParallelExperimentRunner(jobs=1, baselines=baselines).run(
        models=["gpt4"], directions=["omp2cuda"], apps=["layout"]
    )[0].result
    assert sample.profile is not None, "profiled leg produced no profile"

    measured = paired_overhead(
        lambda: _disabled_grid(baselines),
        lambda: _timed_grid(baselines),
        MAX_PROFILE_OVERHEAD,
    )
    overhead = max(0.0, measured.fraction)
    profiled, disabled = measured.variant_seconds, measured.base_seconds

    # The snapshot the perf-gate diffs against the committed baseline.
    snapshot = api.profile_baselines(apps=GRID["apps"])
    assert snapshot == api.profile_baselines(apps=GRID["apps"]), (
        "baseline profiles are not deterministic"
    )

    BENCH_ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "perf_profile",
                "scenarios": len(GRID["apps"]),
                "pairs": measured.pairs,
                "profiled_seconds": round(profiled, 4),
                "disabled_seconds": round(disabled, 4),
                "overhead_fraction": round(overhead, 5),
                "budget_fraction": MAX_PROFILE_OVERHEAD,
                "profiles": snapshot["profiles"],
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    assert overhead < MAX_PROFILE_OVERHEAD, (
        f"profile collection costs {overhead:.1%} of grid wall time "
        f"(budget {MAX_PROFILE_OVERHEAD:.0%}): "
        f"profiled {profiled:.3f}s vs disabled {disabled:.3f}s"
    )
