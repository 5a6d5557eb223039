"""Building discomfort CDFs from stored runs (Figures 10-12, 18).

The paper derives its CDFs "from running our ramp testcases, aggregated
across contexts" (aggregate view, Figures 10-12) and per (context,
resource) pair (Figure 18).  Blank runs carry no contention and are
excluded from CDFs; they feed the Figure 9 noise-floor breakdown instead.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.feedback import RunOutcome
from repro.core.metrics import DiscomfortCDF, DiscomfortObservation
from repro.core.resources import Resource
from repro.core.run import TestcaseRun
from repro.errors import InsufficientDataError

__all__ = [
    "Observations",
    "aggregate_cdf",
    "observations_from_runs",
    "per_cell_cdf",
    "split_blank_runs",
]

#: Shapes used for CDF and metric construction by default: the paper's
#: quantitative CDFs come from ramp testcases.
DEFAULT_SHAPES: tuple[str, ...] = ("ramp",)


class Observations:
    """Runs in one table, built in one pass, for every analysis to select from.

    Arrays hold each run's task, outcome and blankness, whether it has an
    observation (not aborted, exactly one resource exercised), and that
    resource and its shape, so a cell or a rating group is a boolean
    mask.  :meth:`select` reduces each run a mask picks once, so a table
    built for one cell costs about what a filter over the runs does.
    The table keeps its runs; ``uucs analyze`` drops their load traces.
    """

    def __init__(self, runs: Iterable[TestcaseRun]):
        self._runs = runs = list(runs)
        exercised = [run.exercised for run in runs]
        count = np.fromiter(map(len, exercised), np.intp, len(runs))
        single = [e[0] if len(e) == 1 else None for e in exercised]
        self.task = np.array([run.context.task for run in runs], dtype=object)
        self.outcome = np.array([run.outcome for run in runs], dtype=object)
        self.blank = count == 0
        self.observed = (count == 1) & (self.outcome != RunOutcome.ABORTED)
        self.resource = np.array(single, dtype=object)
        shapes = [run.shapes.get(r, "") for run, r in zip(runs, single)]
        self.shape = np.array(shapes, dtype=object)
        self._observations: dict[int, DiscomfortObservation] = {}
        self._ratings: dict[str, np.ndarray] = {}

    @classmethod
    def of(cls, runs: Iterable[TestcaseRun] | Observations) -> Observations:
        """``runs`` itself when it is a table, else a table built from it."""
        return runs if isinstance(runs, Observations) else cls(runs)

    def __len__(self) -> int:
        return len(self._runs)

    def cell(
        self,
        resource: Resource | None = None,
        task: str | None = None,
        shapes: Sequence[str] | None = DEFAULT_SHAPES,
    ) -> np.ndarray:
        """Mask of the observations on ``resource`` in ``task`` whose
        shape is one of ``shapes``; ``None`` leaves that factor free."""
        keep = self.observed.copy()
        if resource is not None:
            keep &= self.resource == resource
        if task is not None:
            keep &= self.task == task
        if shapes is not None:
            keep &= np.isin(self.shape, list(shapes))
        return keep

    def select(self, mask: np.ndarray) -> list[DiscomfortObservation]:
        """The observations of the rows ``mask`` picks, in run order;
        ``mask`` must lie within :attr:`observed`."""
        rows, built = np.flatnonzero(mask).tolist(), self._observations
        for i in set(rows) - built.keys():
            built[i] = DiscomfortObservation.from_run(self._runs[i], self.resource[i])
        return [built[i] for i in rows]

    def rating(self, category: str) -> np.ndarray:
        """Each run's ``rating_<category>`` extra, ``""`` when absent."""
        if category not in self._ratings:
            key = f"rating_{category}"
            extras = [run.context.extra.get(key, "") for run in self._runs]
            self._ratings[category] = np.array(extras, dtype=str)
        return self._ratings[category]


def split_blank_runs(
    runs: Iterable[TestcaseRun],
) -> tuple[list[TestcaseRun], list[TestcaseRun]]:
    """Partition runs into ``(non_blank, blank)``."""
    runs = list(runs)
    return [r for r in runs if r.exercised], [r for r in runs if not r.exercised]


def observations_from_runs(
    runs: Iterable[TestcaseRun] | Observations,
    *,
    resource: Resource | None = None,
    task: str | None = None,
    shapes: Sequence[str] | None = DEFAULT_SHAPES,
) -> list[DiscomfortObservation]:
    """Reduce runs to discomfort observations, with optional filters.

    ``shapes=None`` accepts every non-blank shape.  Aborted runs are
    dropped (they say nothing about comfort).
    """
    table = Observations.of(runs)
    return table.select(table.cell(resource, task, shapes))


def aggregate_cdf(
    runs: Iterable[TestcaseRun] | Observations,
    resource: Resource,
    shapes: Sequence[str] | None = DEFAULT_SHAPES,
) -> DiscomfortCDF:
    """Figure 10-12 style CDF: one resource, aggregated over all tasks."""
    obs = observations_from_runs(runs, resource=resource, shapes=shapes)
    if not obs:
        raise InsufficientDataError(
            f"no {resource.value} observations in the given runs"
        )
    return DiscomfortCDF(obs)


def per_cell_cdf(
    runs: Iterable[TestcaseRun] | Observations,
    task: str,
    resource: Resource,
    shapes: Sequence[str] | None = DEFAULT_SHAPES,
) -> DiscomfortCDF:
    """Figure 18 style CDF: one (task, resource) cell."""
    obs = observations_from_runs(runs, resource=resource, task=task, shapes=shapes)
    if not obs:
        raise InsufficientDataError(
            f"no observations for cell ({task}, {resource.value})"
        )
    return DiscomfortCDF(obs)
