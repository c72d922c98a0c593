"""Shared fixtures for the benchmark harness.

The full §V experiment (80 pipeline runs) is executed once per benchmark
session and shared by every table/statistics bench.
"""

from __future__ import annotations

import gc
import math
import statistics
from typing import Callable, List, NamedTuple, Tuple

import pytest

from repro.experiments import ExperimentRunner
from repro.pipeline import BaselinePreparer


@pytest.fixture(scope="session")
def paper_results():
    """All 80 scenario results under the paper profile."""
    runner = ExperimentRunner()
    return runner.run()


@pytest.fixture(scope="session")
def baselines():
    return BaselinePreparer()


#: Interleaved pairs an overhead gate times before it may stop, the
#: pairs it adds between looks, and the most it times.
MIN_PAIRS, PAIR_STEP, MAX_PAIRS = 20, 10, 120


class PairedOverhead(NamedTuple):
    """The median per-pair time ratio minus one, each leg's median
    seconds, and how many pairs were timed."""

    fraction: float
    base_seconds: float
    variant_seconds: float
    pairs: int


def _median_interval(ratios: List[float]) -> Tuple[float, float]:
    """An order-statistic ~95% confidence interval of the median."""
    ordered = sorted(ratios)
    n = len(ordered)
    rank = max(1, math.floor(n / 2 - 1.96 * math.sqrt(n) / 2))
    return ordered[rank - 1], ordered[n - rank]


def _measure_paired_overhead(
    base: Callable[[], float],
    variant: Callable[[], float],
    budget: float,
) -> PairedOverhead:
    """Overhead of ``variant`` over ``base`` (each a timed leg returning
    seconds), as the median per-pair time ratio minus one.

    Each pair runs both legs back to back and alternates which goes
    first, so a change of host core speed (shared runners drift by tens
    of percent within a second) lands on both legs of a pair instead of
    on whichever leg ran later, and the median drops the pairs that
    straddle such a change.  Pairs are added until a ~95% confidence
    interval of the median lies wholly below or wholly above
    ``1 + budget`` (at least :data:`MIN_PAIRS`), or until
    :data:`MAX_PAIRS`, so a quiet host decides in seconds and a noisy one
    takes the samples it needs.  The heap is collected and frozen first
    and collected again before every leg, so no leg pays for a full
    collection of what earlier tests or the other leg left behind.
    """

    def collected(leg: Callable[[], float]) -> float:
        gc.collect()
        return leg()

    ratios: List[float] = []
    base_seconds: List[float] = []
    variant_seconds: List[float] = []
    gc.collect()
    gc.freeze()
    try:
        while len(ratios) < MAX_PAIRS:
            for i in range(PAIR_STEP):
                if i % 2:
                    v = collected(variant)
                    b = collected(base)
                else:
                    b = collected(base)
                    v = collected(variant)
                ratios.append(v / b)
                base_seconds.append(b)
                variant_seconds.append(v)
            if len(ratios) >= MIN_PAIRS:
                low, high = _median_interval(ratios)
                if high < 1.0 + budget or low > 1.0 + budget:
                    break
    finally:
        gc.unfreeze()
    return PairedOverhead(
        statistics.median(ratios) - 1.0,
        statistics.median(base_seconds),
        statistics.median(variant_seconds),
        len(ratios),
    )


@pytest.fixture
def paired_overhead():
    """The interleaved A/B timer the wall-clock overhead gates share."""
    return _measure_paired_overhead
