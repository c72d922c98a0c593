"""Aggregate statistics over a set of translation results (§V-B/C).

Computes the paper's headline numbers for a direction:

* success rate — fraction of scenarios producing executable code with the
  expected output (80% OMP->CUDA, 85% CUDA->OMP in the paper);
* within-10%-or-faster fraction *of the successful* scenarios (78.1% /
  61.8%);
* Sim-T >= 0.6 fraction of the successful scenarios (40.6% / 47.1%);
* zero-self-correction fraction of the successful scenarios (65.6% / 55.9%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.metrics.runtime import within_10pct_or_faster
from repro.metrics.similarity import HIGH_SIMILARITY_THRESHOLD


@dataclass(frozen=True)
class ScenarioMetrics:
    """The five Table VI/VII columns for one scenario (None => N/A)."""

    ok: bool
    runtime_seconds: Optional[float] = None
    ratio: Optional[float] = None
    sim_t: Optional[float] = None
    sim_l: Optional[float] = None
    self_corrections: Optional[int] = None


@dataclass(frozen=True)
class AggregateStats:
    total: int
    successes: int

    success_rate: float
    within_10pct_rate: float
    high_similarity_rate: float
    first_try_rate: float

    def summary_lines(self) -> list:
        return [
            f"scenarios: {self.total}",
            f"successful translations: {self.successes} "
            f"({self.success_rate:.1%})",
            f"within 10% or faster (of successes): {self.within_10pct_rate:.1%}",
            f"Sim-T >= {HIGH_SIMILARITY_THRESHOLD} (of successes): "
            f"{self.high_similarity_rate:.1%}",
            f"zero self-corrections (of successes): {self.first_try_rate:.1%}",
        ]


def aggregate(results: Sequence[ScenarioMetrics]) -> AggregateStats:
    """Fold scenario metrics into the paper's headline statistics."""
    total = len(results)
    successes = [r for r in results if r.ok]
    n_ok = len(successes)

    def frac(pred) -> float:
        if not successes:
            return 0.0
        return sum(1 for r in successes if pred(r)) / n_ok

    return AggregateStats(
        total=total,
        successes=n_ok,
        success_rate=(n_ok / total) if total else 0.0,
        within_10pct_rate=frac(lambda r: within_10pct_or_faster(r.ratio)),
        high_similarity_rate=frac(
            lambda r: r.sim_t is not None and r.sim_t >= HIGH_SIMILARITY_THRESHOLD
        ),
        first_try_rate=frac(lambda r: (r.self_corrections or 0) == 0),
    )
