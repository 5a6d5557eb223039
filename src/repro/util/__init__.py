"""Shared utilities: seeded RNG plumbing, statistics, tables, time series."""

from repro.util.comfort import quantile_from_buckets
from repro.util.rng import derive_rng, ensure_rng
from repro.util.stats import (
    ConfidenceInterval,
    TTestResult,
    ecdf,
    mean_confidence_interval,
    paired_t_test,
    quantile_from_ecdf,
    unpaired_t_test,
    welch_t_test,
)
from repro.util.tables import TextTable, format_float
from repro.util.timeseries import SampledSeries

__all__ = [
    "ConfidenceInterval",
    "SampledSeries",
    "TTestResult",
    "TextTable",
    "derive_rng",
    "ecdf",
    "ensure_rng",
    "format_float",
    "mean_confidence_interval",
    "paired_t_test",
    "quantile_from_buckets",
    "quantile_from_ecdf",
    "unpaired_t_test",
    "welch_t_test",
]
