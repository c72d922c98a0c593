"""Tests for Sim-T / Sim-L, runtime ratio and aggregates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import aggregate, runtime_ratio, sim_l, sim_t, within_10pct_or_faster
from repro.metrics.aggregate import ScenarioMetrics

CODE_A = """
int main() {
  int n = 10;
  float* a = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {
    a[i] = i;
  }
  return 0;
}
"""

code_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=300
)


class TestSimT:
    def test_identical_code(self):
        assert sim_t(CODE_A, CODE_A) == 1.0

    def test_empty_both(self):
        assert sim_t("", "") == 1.0

    def test_disjoint_code_low(self):
        assert sim_t("aaa bbb ccc;", "xxx yyy zzz;") < 0.3

    def test_renamed_variables_reduce_similarity(self):
        renamed = CODE_A.replace("a", "buf").replace("n", "count").replace("i", "j")
        s = sim_t(CODE_A, renamed)
        assert 0.3 < s < 1.0

    def test_comments_ignored(self):
        commented = CODE_A.replace("int n = 10;", "int n = 10; // size")
        assert sim_t(CODE_A, commented) == 1.0

    def test_symmetry(self):
        other = CODE_A.replace("float", "double")
        assert sim_t(CODE_A, other) == pytest.approx(sim_t(other, CODE_A))

    @given(code_text, code_text)
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, a, b):
        s = sim_t(a, b)
        assert 0.0 <= s <= 1.0


class TestSimL:
    def test_identical(self):
        assert sim_l(CODE_A, CODE_A) == 1.0

    def test_order_insensitive(self):
        a = "int a = 1;\nint b = 2;\nint c = 3;"
        b = "int c = 3;\nint a = 1;\nint b = 2;"
        assert sim_l(a, b) == 1.0

    def test_whitespace_normalized(self):
        a = "int   a  =  1;"
        b = "int a = 1;"
        assert sim_l(a, b) == 1.0

    def test_duplicate_lines_counted_as_multiset(self):
        a = "x++;\nx++;\nx++;"
        b = "x++;"
        assert sim_l(a, b) == pytest.approx(1 / 3)

    def test_denominator_is_longer_code(self):
        a = "int a = 1;"
        b = "int a = 1;\nint b = 2;\nint c = 3;\nint d = 4;"
        assert sim_l(a, b) == pytest.approx(1 / 4)

    @given(code_text, code_text)
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        s = sim_l(a, b)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(sim_l(b, a))


class TestRuntimeRatio:
    def test_ratio_definition(self):
        # reference 2s, generated 1s -> generated faster -> ratio 2
        assert runtime_ratio(2.0, 1.0) == 2.0

    def test_zero_generated_runtime(self):
        assert runtime_ratio(1.0, 0.0) is None

    def test_within_10pct_boundary(self):
        assert within_10pct_or_faster(1.0)
        assert within_10pct_or_faster(1 / 1.1 + 1e-12)
        assert not within_10pct_or_faster(1 / 1.2)
        assert not within_10pct_or_faster(None)

    def test_faster_is_within(self):
        assert within_10pct_or_faster(5.0)


class TestAggregate:
    def make(self, ok, ratio=1.0, sim=0.7, corr=0):
        if not ok:
            return ScenarioMetrics(ok=False)
        return ScenarioMetrics(ok=True, ratio=ratio, sim_t=sim,
                               self_corrections=corr)

    def test_success_rate(self):
        stats = aggregate([self.make(True)] * 8 + [self.make(False)] * 2)
        assert stats.success_rate == pytest.approx(0.8)
        assert stats.total == 10
        assert stats.successes == 8

    def test_rates_computed_over_successes_only(self):
        results = [
            self.make(True, ratio=2.0, sim=0.9, corr=0),
            self.make(True, ratio=0.5, sim=0.3, corr=2),
            self.make(False),
        ]
        stats = aggregate(results)
        assert stats.within_10pct_rate == pytest.approx(0.5)
        assert stats.high_similarity_rate == pytest.approx(0.5)
        assert stats.first_try_rate == pytest.approx(0.5)

    def test_empty(self):
        stats = aggregate([])
        assert stats.total == 0
        assert stats.success_rate == 0.0

    def test_summary_lines(self):
        stats = aggregate([self.make(True)])
        text = "\n".join(stats.summary_lines())
        assert "successful translations: 1" in text


class TestSpeedupDistribution:
    def test_empty_and_unscored_return_none(self):
        from repro.metrics.runtime import speedup_distribution
        assert speedup_distribution([]) is None
        assert speedup_distribution([None, 0.0, -1.0]) is None

    def test_distribution_fields(self):
        from repro.metrics.runtime import speedup_distribution
        dist = speedup_distribution([0.4, 1.0, 2.0, 4.0])
        assert dist["count"] == 4
        assert dist["min"] == 0.4 and dist["max"] == 4.0
        assert dist["p50"] == pytest.approx(1.5)
        assert dist["geomean"] == pytest.approx((0.4 * 1.0 * 2.0 * 4.0) ** 0.25)
        # ratio <= 1/2 counts as "correct but >= 2x slower".
        assert dist["slower"] == 1
        assert dist["slow_factor"] == 2.0

    def test_slow_factor_is_tunable(self):
        from repro.metrics.runtime import speedup_distribution
        dist = speedup_distribution([0.4, 0.2, 1.0], slow_factor=4.0)
        assert dist["slower"] == 1  # only 0.2 <= 1/4

    def test_geomean_skips_nonpositive(self):
        from repro.metrics.runtime import geomean
        assert geomean([]) is None
        assert geomean([0.0, -2.0]) is None
        assert geomean([4.0, 1.0]) == pytest.approx(2.0)
