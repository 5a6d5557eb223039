"""The shared comfort-quantile helper (repro.util.comfort).

One implementation of the paper's ``c_a`` now serves both the analysis
layer (explicit ECDF points) and the streaming telemetry path
(cumulative histogram buckets).  These tests pin the two estimators to
each other, exercise arbitrary ``a``, and keep the historical import
paths alive.
"""

import numpy as np
import pytest

from repro.core.session import DISCOMFORT_LEVEL_BUCKETS
from repro.errors import InsufficientDataError, ValidationError
from repro.telemetry.metrics import check_snapshot
from repro.util.comfort import quantile_from_buckets, quantile_from_ecdf


def ecdf_of(samples):
    xs = np.sort(np.asarray(samples, dtype=float))
    f = np.arange(1, xs.size + 1) / xs.size
    return xs, f


def buckets_of(samples, bounds):
    cumulative = [sum(1 for s in samples if s <= b) for b in bounds]
    return list(bounds), cumulative


class TestBucketEstimator:
    def test_interpolates_within_bucket(self):
        # 10 observations <= 1.0, 10 more <= 2.0: the median rank (10)
        # lands exactly on the first bucket's upper edge.
        assert quantile_from_buckets([1.0, 2.0], [10, 20], 20, 0.5) == 1.0
        # Rank 15 sits midway through the second bucket.
        assert quantile_from_buckets([1.0, 2.0], [10, 20], 20, 0.75) == 1.5

    def test_no_observations_is_none(self):
        assert quantile_from_buckets([1.0, 2.0], [0, 0], 0, 0.05) is None

    def test_overflow_clamps_to_last_bound(self):
        # All mass above the highest finite bound: Prometheus convention
        # clamps to it rather than extrapolating.
        assert quantile_from_buckets([1.0, 2.0], [0, 0], 5, 0.5) == 2.0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValidationError):
            quantile_from_buckets([1.0], [1], 1, 1.5)

    @pytest.mark.parametrize("a", [0.01, 0.05, 0.25, 0.5, 0.95])
    def test_arbitrary_a_monotone(self, a):
        bounds = list(DISCOMFORT_LEVEL_BUCKETS)
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.05, bounds[-1], size=400)
        bounds, cumulative = buckets_of(samples, bounds)
        lo = quantile_from_buckets(bounds, cumulative, len(samples), a)
        hi = quantile_from_buckets(bounds, cumulative, len(samples), min(1.0, a + 0.04))
        assert lo is not None and hi is not None
        assert lo <= hi


class TestEcdfEstimator:
    def test_exact_on_step_points(self):
        xs, f = ecdf_of([1.0, 2.0, 3.0, 4.0])
        assert quantile_from_ecdf(xs, f, 0.25) == 1.0
        assert quantile_from_ecdf(xs, f, 0.5) == 2.0
        assert quantile_from_ecdf(xs, f, 1.0) == 4.0

    def test_censored_region_raises(self):
        # CDF plateaus at 0.6: the paper's exhausted region.
        xs = np.array([1.0, 2.0])
        f = np.array([0.3, 0.6])
        with pytest.raises(InsufficientDataError):
            quantile_from_ecdf(xs, f, 0.95)

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            quantile_from_ecdf(np.array([]), np.array([]), 0.05)

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValidationError):
            quantile_from_ecdf(np.array([1.0]), np.array([1.0]), 0.0)


class TestEstimatorsAgree:
    @pytest.mark.parametrize("a", [0.05, 0.1, 0.5, 0.9])
    def test_bucket_vs_ecdf_within_one_bucket_width(self, a):
        """Both estimators of the same sample agree to bucket resolution."""
        rng = np.random.default_rng(2004)
        bounds = list(DISCOMFORT_LEVEL_BUCKETS)
        samples = np.exp(rng.normal(0.0, 0.6, size=1000))
        samples = samples[samples <= bounds[-1]]
        xs, f = ecdf_of(samples)
        exact = quantile_from_ecdf(xs, f, a)
        b, cum = buckets_of(samples, bounds)
        approx = quantile_from_buckets(b, cum, len(samples), a)
        idx = next(i for i, bound in enumerate(bounds) if exact <= bound)
        width = bounds[idx] - (bounds[idx - 1] if idx else 0.0)
        assert abs(approx - exact) <= width


def parsed_series(buckets, count):
    """One unlabelled histogram snapshot entry, as check_snapshot reads it."""
    families = check_snapshot({"h": {"kind": "histogram", "value": {
        "count": count, "sum": 0.0, "buckets": buckets,
    }}}, lambda name: None)
    return families["h"]


class TestSnapshotMapping:
    def test_string_bounds_after_json_round_trip(self):
        # Snapshot bucket mappings may carry string bounds, unordered.
        family = parsed_series({"2.0": 8, "0.5": 2, "1.0": 4}, 8)
        ((_, (count, _, cumulative)),) = family.series
        assert quantile_from_buckets(
            family.bounds, cumulative, count, 0.25
        ) == pytest.approx(0.5)

    def test_unobserved_series_has_no_quantile(self):
        for buckets in ({}, {"1.0": 0}):
            family = parsed_series(buckets, 0)
            assert family.series == [] and family.bounds is None
        assert quantile_from_buckets((1.0,), (0,), 0, 0.05) is None


class TestHistoricalImports:
    def test_old_paths_still_resolve(self):
        from repro.telemetry.metrics import (
            quantile_from_buckets as from_metrics,
        )
        from repro.util import quantile_from_buckets as from_util
        from repro.util.stats import quantile_from_ecdf as from_stats

        assert from_metrics is quantile_from_buckets
        assert from_stats is quantile_from_ecdf
        assert from_util is quantile_from_buckets

    def test_discomfort_cdf_percentile_uses_shared_helper(self):
        from repro.core.metrics import DiscomfortCDF, DiscomfortObservation

        from repro.core.resources import Resource

        cdf = DiscomfortCDF(
            DiscomfortObservation(level=v, censored=False, resource=Resource.CPU)
            for v in (1.0, 2.0, 3.0, 4.0)
        )
        xs, f = cdf.curve()
        assert cdf.c_percentile(0.5) == quantile_from_ecdf(xs, f, 0.5)
