"""Runtime metrics: the Ratio column, the "within 10% or faster" test,
and the speedup-distribution statistics the profiling layer reports."""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence

from repro.telemetry.summary import percentile

#: "Correct but slow" threshold: a scenario counts as slow when the
#: generated code is at least this many times slower than the reference.
SLOW_FACTOR = 2.0


def runtime_ratio(reference_seconds: float, generated_seconds: float) -> Optional[float]:
    """The paper's Ratio: reference runtime (human-written code in the target
    language) divided by the LASSI-generated code's runtime.  > 1 means the
    generated code is faster."""
    if generated_seconds <= 0:
        return None
    return reference_seconds / generated_seconds


def within_10pct_or_faster(ratio: Optional[float]) -> bool:
    """§V-B/C: "within 10% of or at a faster runtime than the original".

    Ratio = t_ref / t_gen, so t_gen <= 1.1 * t_ref  <=>  ratio >= 1/1.1.
    """
    if ratio is None:
        return False
    return ratio >= (1.0 / 1.1)


def geomean(values: Sequence[float]) -> Optional[float]:
    """Geometric mean of positive ratios; ``None`` on an empty input."""
    positive = [v for v in values if v > 0]
    if not positive:
        return None
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def speedup_distribution(
    ratios: Sequence[float], slow_factor: float = SLOW_FACTOR
) -> Optional[Dict[str, Any]]:
    """Distribution of speedup ratios (ref/gen, > 1 = generated faster).

    Returns ``None`` when no scored ratios exist; otherwise a dict with
    the scenario count, geomean, p50/p95 and the count of "correct but
    >= slow_factor x slower" scenarios (``ratio <= 1/slow_factor``).
    Values round to 6 decimals so campaign manifests stay stable.
    """
    scored = sorted(r for r in ratios if r is not None and r > 0)
    if not scored:
        return None
    gm = geomean(scored)
    return {
        "count": len(scored),
        "geomean": round(gm, 6) if gm is not None else None,
        "p50": round(percentile(scored, 0.50), 6),
        "p95": round(percentile(scored, 0.95), 6),
        "min": round(scored[0], 6),
        "max": round(scored[-1], 6),
        "slow_factor": slow_factor,
        "slower": sum(1 for r in scored if r <= 1.0 / slow_factor),
    }
