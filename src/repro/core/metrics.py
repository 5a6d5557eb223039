"""Comfort metrics (paper §3.3).

From a set of runs the paper derives, per (task, resource) cell or
aggregated:

* a **discomfort CDF**: cumulative fraction of runs discomforted at or below
  each contention level.  Runs that exhausted the testcase without feedback
  are *right-censored* at the maximum level they applied — they cap the CDF
  below 1 (the "exhausted region").
* ``f_d`` — fraction of runs ending in discomfort,
  ``DfCount / (DfCount + ExCount)``.
* ``c_p`` — the contention level that discomforts a fraction ``p`` of users
  (``c_0.05`` in Figure 15 is the 5th percentile).
* ``c_a`` — mean contention at discomfort, with a 95 % CI (Figure 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.resources import Resource
from repro.core.run import TestcaseRun
from repro.errors import InsufficientDataError, ValidationError
from repro.util.stats import (
    ConfidenceInterval,
    mean_confidence_interval,
    quantile_from_ecdf,
)

__all__ = ["DiscomfortCDF", "DiscomfortObservation"]


@dataclass(frozen=True)
class DiscomfortObservation:
    """One run reduced to a (possibly censored) discomfort level.

    ``level`` is the contention at discomfort for reacting runs, or the
    maximum contention reached for censored (exhausted) runs.
    """

    level: float
    censored: bool
    resource: Resource
    task: str = ""
    user_id: str = ""
    shape: str = ""
    run_id: str = ""

    @classmethod
    def from_run(
        cls, run: TestcaseRun, resource: Resource | None = None
    ) -> "DiscomfortObservation":
        """Reduce ``run`` to an observation on its (primary) resource."""
        if resource is None:
            if len(run.exercised) != 1:
                raise ValidationError(
                    f"run {run.run_id} has no unique exercised resource; "
                    "pass one explicitly"
                )
            (resource,) = run.exercised
        if run.discomforted:
            level = run.discomfort_level(resource)
            censored = False
        else:
            level = run.max_level(resource)
            censored = True
        return cls(
            level=level,
            censored=censored,
            resource=resource,
            task=run.context.task,
            user_id=run.context.user_id,
            shape=run.shapes.get(resource, ""),
            run_id=run.run_id,
        )


class DiscomfortCDF:
    """Censoring-aware empirical discomfort CDF over observations."""

    def __init__(self, observations: Iterable[DiscomfortObservation]):
        obs = list(observations)
        if not obs:
            raise InsufficientDataError("a CDF needs at least one observation")
        self._observations = obs
        self._levels = np.sort(
            np.array([o.level for o in obs if not o.censored], dtype=float)
        )
        self._censor_levels = np.sort(
            np.array([o.level for o in obs if o.censored], dtype=float)
        )

    # -- counts (Figure 10's DfCount / ExCount labels) ---------------------

    @property
    def df_count(self) -> int:
        """Number of runs that ended in discomfort."""
        return int(self._levels.size)

    @property
    def ex_count(self) -> int:
        """Number of runs that exhausted without feedback (censored)."""
        return int(self._censor_levels.size)

    @property
    def n(self) -> int:
        return self.df_count + self.ex_count

    @property
    def observations(self) -> Sequence[DiscomfortObservation]:
        return tuple(self._observations)

    @property
    def discomfort_levels(self) -> np.ndarray:
        """Sorted uncensored discomfort levels."""
        return self._levels.copy()

    # -- metrics -----------------------------------------------------------

    def f_d(self) -> float:
        """Fraction of runs provoking discomfort: DfCount/(DfCount+ExCount)."""
        return self.df_count / self.n

    def evaluate(self, level: float) -> float:
        """CDF value: fraction of all runs discomforted at or below ``level``."""
        if self.n == 0:
            return 0.0
        return float(np.searchsorted(self._levels, level, side="right")) / self.n

    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """Step-curve points ``(levels, cumulative fraction of runs)``.

        The curve plateaus at ``f_d()`` — the exhausted region.
        """
        if self.df_count == 0:
            return np.empty(0), np.empty(0)
        x = self._levels
        f = np.arange(1, x.size + 1, dtype=float) / self.n
        return x, f

    def c_percentile(self, p: float = 0.05) -> float:
        """Contention level that discomforts a fraction ``p`` of users.

        Raises :class:`InsufficientDataError` when fewer than ``p`` of runs
        were ever discomforted in the explored range (the paper's ``*``
        cells).
        """
        x, f = self.curve()
        return quantile_from_ecdf(x, f, p)

    def c_mean_ci(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Mean discomfort contention ``c_a`` with a confidence interval."""
        if self.df_count == 0:
            raise InsufficientDataError(
                "no discomfort observations: c_a undefined (paper's '*')"
            )
        return mean_confidence_interval(self._levels, confidence)

    def c_a(self) -> float:
        """Mean discomfort contention (point estimate)."""
        return self.c_mean_ci().mean

    # -- combination -------------------------------------------------------

    def merged(self, other: "DiscomfortCDF") -> "DiscomfortCDF":
        """CDF over the union of both observation sets."""
        return DiscomfortCDF(list(self._observations) + list(other._observations))

    def filtered(
        self,
        *,
        task: str | None = None,
        resource: Resource | None = None,
        shape: str | None = None,
    ) -> "DiscomfortCDF":
        """CDF restricted to observations matching the given factors."""
        obs = [
            o
            for o in self._observations
            if (task is None or o.task == task)
            and (resource is None or o.resource is resource)
            and (shape is None or o.shape == shape)
        ]
        return DiscomfortCDF(obs)

    def __repr__(self) -> str:
        return (
            f"DiscomfortCDF(DfCount={self.df_count}, ExCount={self.ex_count}, "
            f"f_d={self.f_d():.2f})"
        )
