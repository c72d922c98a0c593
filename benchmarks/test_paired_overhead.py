"""The interleaved A/B timer behind the wall-clock overhead gates.

Fake legs return fixed "seconds", so the order the timer runs them in,
the statistic it gates, when it stops and its garbage-collector hygiene
are checked without timing anything.
"""

from __future__ import annotations

import gc
import itertools


def test_pairs_alternate_which_leg_runs_first(paired_overhead):
    calls = []

    def leg(name, seconds):
        def run():
            calls.append(name)
            return seconds
        return run

    measured = paired_overhead(leg("base", 2.0), leg("variant", 2.2), 0.05)

    assert calls[:8] == ["base", "variant", "variant", "base",
                         "base", "variant", "variant", "base"]
    assert round(measured.fraction, 9) == 0.1
    assert (measured.base_seconds, measured.variant_seconds) == (2.0, 2.2)


def test_clear_verdicts_stop_early_and_undecided_ones_sample_more(
    paired_overhead,
):
    over = paired_overhead(lambda: 1.0, lambda: 1.1, 0.05)
    under = paired_overhead(lambda: 1.0, lambda: 1.01, 0.05)
    # Half the pairs read 0%, half 10%: the interval straddles 5%.
    split = itertools.cycle([1.0, 1.1])
    undecided = paired_overhead(lambda: 1.0, lambda: next(split), 0.05)
    assert over.pairs == under.pairs < undecided.pairs


def test_median_pair_ratio_ignores_stalled_pairs(paired_overhead):
    stalls = itertools.cycle([1.02] * 9 + [5.0])
    measured = paired_overhead(lambda: 1.0, lambda: next(stalls), 0.05)
    assert round(measured.fraction, 9) == 0.02


def test_heap_is_frozen_only_while_timing(paired_overhead):
    frozen_during = []

    def leg():
        frozen_during.append(gc.get_freeze_count() > 0)
        return 1.0

    assert gc.get_freeze_count() == 0
    paired_overhead(leg, leg, 0.05)
    assert frozen_during and all(frozen_during)
    assert gc.get_freeze_count() == 0
