"""Per-shape discomfort analysis (Internet-study data).

The Internet library mixes steps, ramps, oscillators, and queueing-model
(M/M/1, M/G/1) shapes "to study a wide variety of resource borrowing
behavior" (§2.1).  This module groups runs by the exercise-function shape
that drove them and summarizes the discomfort outcomes — which borrowing
*patterns* users forgive, extending the ramp-vs-step time-dynamics
question across the whole catalogue.

Shapes reach different peak levels, so raw ``f_d`` comparisons conflate
shape with intensity; the summary therefore also reports discomfort per
unit of applied mean contention (reactions normalized by exposure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.run import TestcaseRun
from repro.errors import InsufficientDataError
from repro.util.tables import TextTable

__all__ = ["ShapeSummary", "shape_table", "summarize_shapes"]


@dataclass(frozen=True)
class ShapeSummary:
    """Outcome summary for one exercise-function shape."""

    shape: str
    n_runs: int
    f_d: float
    #: Mean contention applied over the executed portion of the runs.
    mean_exposure: float
    #: Mean peak contention the runs reached.
    mean_peak: float

    @property
    def discomfort_per_exposure(self) -> float:
        """Reactions per unit of mean applied contention — an
        intensity-normalized irritation rate."""
        return self.f_d / self.mean_exposure if self.mean_exposure > 0 else 0.0


def _run_exposure(run: TestcaseRun) -> tuple[float, float] | None:
    """(mean level applied, peak level applied) over the executed part."""
    values: list[np.ndarray] = []
    for key, trace in run.load_trace.items():
        if key.startswith("contention_") and trace:
            values.append(np.asarray(trace, dtype=float))
    if not values:
        return None
    stacked = np.concatenate(values)
    return float(stacked.mean()), float(stacked.max())


def summarize_shapes(
    runs: Iterable[TestcaseRun], min_runs: int = 3
) -> list[ShapeSummary]:
    """Group non-blank runs by primary shape and summarize each group."""
    groups: dict[str, list[TestcaseRun]] = {}
    for run in runs:
        if len(run.exercised) == 1:
            groups.setdefault(run.shapes[run.exercised[0]], []).append(run)
    summaries: list[ShapeSummary] = []
    for shape, members in groups.items():
        if len(members) < min_runs:
            continue
        exposures, peaks = [], []
        for run in members:
            exposure = _run_exposure(run)
            if exposure is not None:
                exposures.append(exposure[0])
                peaks.append(exposure[1])
        summaries.append(
            ShapeSummary(
                shape=shape,
                n_runs=len(members),
                f_d=float(np.mean([r.discomforted for r in members])),
                mean_exposure=float(np.mean(exposures)) if exposures else 0.0,
                mean_peak=float(np.mean(peaks)) if peaks else 0.0,
            )
        )
    if not summaries:
        raise InsufficientDataError(
            f"no shape reached {min_runs} non-blank runs"
        )
    summaries.sort(key=lambda s: -s.f_d)
    return summaries


def shape_table(summaries: list[ShapeSummary]) -> TextTable:
    """Render the per-shape summary."""
    table = TextTable(
        "Discomfort by exercise-function shape",
        ["shape", "runs", "f_d", "mean exposure", "mean peak",
         "f_d / exposure"],
    )
    for s in summaries:
        table.add_row(
            s.shape, s.n_runs, f"{s.f_d:.2f}", f"{s.mean_exposure:.2f}",
            f"{s.mean_peak:.2f}", f"{s.discomfort_per_exposure:.2f}",
        )
    return table
