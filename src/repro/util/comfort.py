"""The one comfort-quantile implementation every layer shares.

The paper's comfort metric ``c_a`` — the contention level below which a
fraction ``a`` of observed discomfort events fell — used to be computed
twice: once over explicit empirical CDF points by the analysis layer
(:meth:`repro.core.metrics.DiscomfortCDF.c_percentile`) and once over
cumulative histogram buckets by the fleet dashboard
(:func:`repro.telemetry.web.comfort_cells`).  Two implementations of the
same statistic drift; with the harvesting scheduler now *acting* on the
dashboard's numbers, drift would mean the controller and the operator
disagree about where the comfort threshold sits.

Both estimators therefore live here, support arbitrary ``a``, and are
re-exported from their historical homes (``repro.util.stats`` and
``repro.telemetry.metrics``) so existing imports keep working:

* :func:`quantile_from_ecdf` — exact quantile of explicit ``(x, F)``
  step points (raises in the censored region, as the analysis layer
  requires);
* :func:`quantile_from_buckets` — interpolated quantile of cumulative
  histogram buckets (returns ``None`` without data, as the streaming
  telemetry path requires).  A histogram snapshot's string-keyed
  buckets reach it parsed and sorted by
  :func:`repro.telemetry.metrics.check_snapshot`.

Pure functions over numbers; nothing here draws randomness.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InsufficientDataError, ValidationError

__all__ = ["quantile_from_buckets", "quantile_from_ecdf"]


def quantile_from_buckets(
    bounds: Sequence[float],
    cumulative: Sequence[int],
    total: int,
    q: float,
) -> float | None:
    """Estimate the ``q``-quantile from cumulative histogram buckets.

    ``bounds`` are the finite upper bucket bounds (ascending) and
    ``cumulative[i]`` is the number of observations ``<= bounds[i]``.
    The estimate linearly interpolates within the bucket holding the
    target rank, assuming observations are uniform inside it, so the
    error is at most one bucket width.  Observations above the highest
    finite bound cannot be located and clamp to ``bounds[-1]`` (the
    Prometheus convention).  Returns ``None`` when there are no
    observations.
    """
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"quantile must be in [0, 1], got {q}")
    if total <= 0:
        return None
    rank = q * total
    prev_cum = 0
    for i, (bound, cum) in enumerate(zip(bounds, cumulative)):
        if cum >= rank and cum > prev_cum:
            # Lower edge: previous bound, or 0 for a positive first bucket
            # (negative observations in the first bucket clamp to its bound).
            lower = bounds[i - 1] if i else (0.0 if bound > 0 else bound)
            fraction = max(0.0, (rank - prev_cum) / (cum - prev_cum))
            return lower + (bound - lower) * min(1.0, fraction)
        prev_cum = cum
    return float(bounds[-1])


def quantile_from_ecdf(
    x: np.ndarray, f: np.ndarray, q: float
) -> float:
    """Smallest ``x`` whose CDF value reaches ``q``.

    Raises :class:`InsufficientDataError` when the CDF plateaus below ``q``
    (the paper's censored region, where remaining users never reacted).
    """
    if not 0.0 < q <= 1.0:
        raise ValidationError(f"quantile q must be in (0, 1], got {q}")
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.size == 0 or f.size == 0 or f[-1] < q:
        raise InsufficientDataError(
            f"CDF never reaches q={q} (max coverage "
            f"{0.0 if f.size == 0 else f[-1]:.3f})"
        )
    idx = int(np.searchsorted(f, q, side="left"))
    return float(x[idx])
