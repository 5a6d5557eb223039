"""Statistics used by the paper's analysis.

The paper reports empirical CDFs (Figures 10-12, 18), means with 95 %
confidence intervals (Figure 16), and unpaired t-tests between user groups
(Figure 17).  These are implemented here on plain numpy arrays so the
analysis layer stays free of statistical detail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InsufficientDataError, ValidationError
from repro.util.comfort import quantile_from_ecdf

__all__ = [
    "ConfidenceInterval",
    "TTestResult",
    "ecdf",
    "mean_confidence_interval",
    "quantile_from_ecdf",
    "unpaired_t_test",
    "paired_t_test",
    "welch_t_test",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with a symmetric two-sided confidence interval."""

    mean: float
    low: float
    high: float
    confidence: float = 0.95
    n: int = 0

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0


@dataclass(frozen=True)
class TTestResult:
    """Result of a two-sample t-test comparing group ``a`` against ``b``.

    ``diff`` is ``mean(b) - mean(a)`` to match the paper's convention of
    reporting how much *less* contention the more skilled group tolerates
    (Figure 17 lists positive differences for Power vs. Typical).
    """

    statistic: float
    p_value: float
    diff: float
    n_a: int
    n_b: int

    def significant(self, alpha: float = 0.05) -> bool:
        return bool(self.p_value < alpha)


def ecdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return the empirical CDF of ``samples`` as ``(x, F)`` step points.

    ``x`` is sorted; ``F[i]`` is the fraction of samples ``<= x[i]``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return np.empty(0), np.empty(0)
    if np.any(~np.isfinite(samples)):
        raise ValidationError("ecdf requires finite samples")
    x = np.sort(samples)
    f = np.arange(1, x.size + 1, dtype=float) / x.size
    return x, f


# quantile_from_ecdf lives in repro.util.comfort (shared with the
# bucket-based telemetry estimator) and is re-exported here for its
# historical consumers.


def mean_confidence_interval(
    samples: np.ndarray, confidence: float = 0.95
) -> ConfidenceInterval:
    """Mean of ``samples`` with a t-distribution confidence interval.

    Matches the paper's Figure 16 (``c_a`` with 95 % CIs).
    ``confidence`` must lie in (0, 1).
    """
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must be in (0,1), got {confidence}")
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise InsufficientDataError("no samples for mean CI")
    mean = float(np.mean(samples))
    if n == 1:
        return ConfidenceInterval(mean, mean, mean, confidence, n)
    sem = float(np.std(samples, ddof=1)) / np.sqrt(n)
    # Every ``import repro`` loads this module, and no study, fleet,
    # sync or harvest run needs scipy, so scipy is imported only where
    # an analysis calls for it.  ``stdtrit`` is the kernel
    # ``scipy.stats.t.ppf`` dispatches to (same bits), without the
    # import time of ``scipy.stats``.
    from scipy.special import stdtrit

    half = float(stdtrit(n - 1, 0.5 + confidence / 2.0)) * sem
    return ConfidenceInterval(mean, mean - half, mean + half, confidence, n)


def _two_sample_t(
    a: np.ndarray, b: np.ndarray, equal_var: bool
) -> TTestResult:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise InsufficientDataError(
            f"t-test needs >=2 samples per group (got {a.size}, {b.size})"
        )
    from scipy import stats as sps

    stat, p = sps.ttest_ind(a, b, equal_var=equal_var)
    return TTestResult(
        statistic=float(stat),
        p_value=float(p),
        diff=float(np.mean(b) - np.mean(a)),
        n_a=int(a.size),
        n_b=int(b.size),
    )


def unpaired_t_test(a: np.ndarray, b: np.ndarray) -> TTestResult:
    """Classic pooled-variance unpaired t-test, as used in Figure 17."""
    return _two_sample_t(a, b, equal_var=True)


def welch_t_test(a: np.ndarray, b: np.ndarray) -> TTestResult:
    """Welch's unequal-variance t-test (robustness companion)."""
    return _two_sample_t(a, b, equal_var=False)


def paired_t_test(a: np.ndarray, b: np.ndarray) -> TTestResult:
    """Paired t-test on matched samples (used for ramp-vs-step pairs).

    ``diff`` is ``mean(b - a)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(
            f"paired samples must align, got shapes {a.shape} vs {b.shape}"
        )
    if a.size < 2:
        raise InsufficientDataError(
            f"paired t-test needs >=2 pairs, got {a.size}"
        )
    from scipy import stats as sps

    stat, p = sps.ttest_rel(b, a)
    return TTestResult(
        statistic=float(stat),
        p_value=float(p),
        diff=float(np.mean(b - a)),
        n_a=int(a.size),
        n_b=int(b.size),
    )
