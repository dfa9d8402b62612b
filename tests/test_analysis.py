"""Tests for CDF and statistics helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.cdf import Cdf
from repro.analysis.stats import mean, median, percentile, stdev


class TestCdf:
    def test_fraction_at(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_at(0.5) == 0.0
        assert cdf.fraction_at(1.0) == 0.25
        assert cdf.fraction_at(2.5) == 0.5
        assert cdf.fraction_at(10.0) == 1.0

    def test_fraction_at_with_duplicates(self):
        cdf = Cdf([1.0, 1.0, 1.0, 5.0])
        assert cdf.fraction_at(1.0) == 0.75

    def test_percentile(self):
        cdf = Cdf([10.0, 20.0, 30.0, 40.0])
        assert cdf.percentile(0.25) == 10.0
        assert cdf.percentile(0.5) == 20.0
        assert cdf.percentile(1.0) == 40.0

    def test_percentile_validation(self):
        cdf = Cdf([1.0])
        with pytest.raises(ValueError):
            cdf.percentile(0.0)
        with pytest.raises(ValueError):
            Cdf([]).percentile(0.5)

    def test_infinities_weigh_denominator(self):
        # 2 of 4 nodes never succeed: the CDF saturates at 50%.
        cdf = Cdf([1.0, 2.0, math.inf, math.inf])
        assert cdf.fraction_at(1e12) == 0.5
        assert cdf.finite_fraction() == 0.5

    def test_empty_cdf(self):
        cdf = Cdf([])
        assert cdf.fraction_at(1.0) == 0.0
        assert len(cdf) == 0
        assert cdf.finite_fraction() == 0.0
        assert cdf.points() == []

    def test_points_cover_range(self):
        values = [float(i) for i in range(100)]
        cdf = Cdf(values)
        points = cdf.points(max_points=10)
        assert points[0][0] == 0.0
        assert points[-1] == (99.0, 1.0)
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    def test_property_fraction_monotone(self, values):
        cdf = Cdf(values)
        lo, hi = min(values), max(values)
        assert cdf.fraction_at(lo - 1) == 0.0
        assert cdf.fraction_at(hi) == 1.0
        mid = (lo + hi) / 2
        assert cdf.fraction_at(lo) <= cdf.fraction_at(mid) <= 1.0

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1))
    def test_property_percentile_inverse_of_fraction(self, values):
        cdf = Cdf(values)
        for q in (0.25, 0.5, 0.9, 1.0):
            x = cdf.percentile(q)
            assert cdf.fraction_at(x) >= q


class TestStats:
    def test_mean_skips_infinities(self):
        assert mean([1.0, 3.0, math.inf]) == 2.0

    def test_mean_empty_is_nan(self):
        assert math.isnan(mean([]))
        assert math.isnan(mean([math.inf]))

    def test_median_includes_infinities(self):
        assert median([1.0, math.inf, math.inf]) == math.inf
        assert median([1.0, 2.0, 3.0]) == 2.0
        assert median([1.0, 3.0]) == 2.0

    def test_median_empty_is_nan(self):
        assert math.isnan(median([]))

    def test_percentile(self):
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0
        assert percentile([1.0, 2.0], 1.0) == 2.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        assert math.isnan(percentile([], 0.5))

    def test_stdev(self):
        assert stdev([2.0, 2.0, 2.0]) == 0.0
        assert stdev([1.0, 3.0]) == 1.0
        assert stdev([5.0]) == 0.0

