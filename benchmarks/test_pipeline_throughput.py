"""Micro-benchmarks of the substrate itself (pytest-benchmark timings).

Not a paper artifact: these track the cost of the pieces the 80-scenario
experiment leans on, so performance regressions in the simulator show up.

The front-end legs time real work, not memo hits: the compile and
translate legs clear the compile memo (and the parse memo under it)
before every round, and the parse leg calls the parser directly over the
20 Table IV sources.  Each runs with the heap collected and frozen, so
its rounds pay for no full collection of what earlier tests left behind.
Together they write ``BENCH_frontend.latest.json`` (gitignored; CI uploads
it): parse kB/s and compile and translate ms per call (round medians),
next to the same legs measured before the shared parse memo and tuple
tokens.  A performance change copies the figures it reports into the
committed ``BENCH_frontend.json``.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from repro.hecbench import all_apps, get_app
from repro.llm.transpiler import Transpiler
from repro.minilang import parse
from repro.minilang.source import Dialect, SourceFile
from repro.toolchain import Executor, clear_compile_cache, compiler_for

ROUNDS = 20

BENCH_ARTIFACT = Path("BENCH_frontend.latest.json")

#: The three legs on the commit before the shared parse memo and tuple
#: tokens: the median of six runs' round medians of this module alone,
#: each alternated with a run of the commit that added them (shared
#: 2-core box, Python 3.11).  The box's speed drifted by up to 2x between
#: sittings, so an "after" compares with these only from the same sitting.
BEFORE = {
    "parse_kb_per_s": 348.7,
    "compile_ms_per_call": 6.043,
    "translate_ms_per_call": 10.396,
}


@pytest.fixture(scope="module")
def frontend():
    """Collects each leg's figure; writes the artifact once all three ran."""
    after: dict = {}
    yield after
    if len(after) == len(BEFORE):
        BENCH_ARTIFACT.write_text(
            json.dumps(
                {
                    "bench": "frontend",
                    "rounds": ROUNDS,
                    "before": BEFORE,
                    "after": {key: after[key] for key in BEFORE},
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )


@pytest.fixture
def frozen_heap():
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


def _median_seconds(benchmark):
    """The round median, or None when pytest-benchmark is disabled."""
    stats = benchmark.stats
    return None if stats is None else stats.stats.median


def test_parse_throughput(benchmark, frontend, frozen_heap):
    sources = [
        SourceFile(app.name, app.source(dialect), dialect)
        for app in all_apps()
        for dialect in (Dialect.CUDA, Dialect.OMP)
    ]
    assert len(sources) == 20
    results = benchmark.pedantic(
        lambda: [parse(source) for source in sources], rounds=ROUNDS
    )
    assert not any(diags.has_errors for _program, diags in results)
    seconds = _median_seconds(benchmark)
    if seconds is not None:
        kb = sum(len(source.text) for source in sources) / 1000
        frontend["parse_kb_per_s"] = round(kb / seconds, 1)


def test_compile_throughput(benchmark, frontend, frozen_heap):
    app = get_app("jacobi")
    result = benchmark.pedantic(
        lambda: compiler_for(Dialect.CUDA).compile(app.cuda_source),
        setup=clear_compile_cache,
        rounds=ROUNDS,
    )
    assert result.ok
    seconds = _median_seconds(benchmark)
    if seconds is not None:
        frontend["compile_ms_per_call"] = round(seconds * 1000, 3)


def test_execute_throughput(benchmark):
    app = get_app("layout")
    program = compiler_for(Dialect.OMP).compile(app.omp_source).program
    ex = Executor()
    run = benchmark(lambda: ex.run(program, Dialect.OMP, app.args))
    assert run.ok


def test_transpile_throughput(benchmark, frontend, frozen_heap):
    app = get_app("pathfinder")
    tr = Transpiler()
    code = benchmark.pedantic(
        lambda: tr.translate(app.cuda_source, Dialect.CUDA, Dialect.OMP),
        setup=clear_compile_cache,
        rounds=ROUNDS,
    )
    assert "#pragma omp" in code
    seconds = _median_seconds(benchmark)
    if seconds is not None:
        frontend["translate_ms_per_call"] = round(seconds * 1000, 3)
