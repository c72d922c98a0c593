"""Throughput and reliability of the synthetic scenario generator.

Measures two things over the full family catalogue at several seeds:

* **generation rate** — paired CUDA+OMP scenarios rendered per second
  (pure template expansion; must be effectively free next to the pipeline
  runs it feeds);
* **differential pass rate** — the fraction of generated pairs whose two
  dialects compile, execute, and print byte-identical output through the
  interpreter.  The generator's contract is 100%: a disagreeing pair is a
  template bug, not a benchmark.

Emits ``BENCH_synth_generation.json`` (picked up as a CI artifact).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.synth import (
    SynthSpec,
    differential_check,
    family_names,
    generate_app,
)
from repro.toolchain import Executor

BENCH_ARTIFACT = Path("BENCH_synth_generation.json")

#: Seeds per family; every (family, seed) pair is checked differentially.
SEEDS = 3

#: Template expansion is string work; even a slow CI box renders far more
#: than this many scenarios per second.
MIN_GENERATION_RATE = 20.0


@pytest.mark.bench
def test_synth_generation_rate_and_agreement():
    specs = [
        SynthSpec(family, difficulty=1 + seed % 3, seed=seed)
        for family in family_names()
        for seed in range(SEEDS)
    ]

    start = time.perf_counter()
    apps = [generate_app(spec) for spec in specs]
    generation_s = time.perf_counter() - start
    generation_rate = len(apps) / generation_s

    executor = Executor()
    start = time.perf_counter()
    reports = [differential_check(app, executor) for app in apps]
    check_s = time.perf_counter() - start

    failures = [r for r in reports if not r.ok]
    pass_rate = (len(reports) - len(failures)) / len(reports)

    BENCH_ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "synth_generation",
                "families": len(family_names()),
                "seeds_per_family": SEEDS,
                "scenarios": len(apps),
                "generation_seconds": round(generation_s, 4),
                "scenarios_generated_per_second": round(generation_rate, 1),
                "differential_check_seconds": round(check_s, 4),
                "differential_pass_rate": round(pass_rate, 4),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    assert pass_rate == 1.0, "differential failures: " + ", ".join(
        f"{r.app_name}[{r.stage}]" for r in failures
    )
    assert generation_rate > MIN_GENERATION_RATE, (
        f"generated only {generation_rate:.1f} scenarios/s "
        f"(floor {MIN_GENERATION_RATE})"
    )
