"""Analysis helpers: empirical CDFs and summary statistics."""

from repro.analysis.cdf import Cdf
from repro.analysis.stats import mean, median, percentile, stdev

__all__ = ["Cdf", "mean", "median", "percentile", "stdev"]
