"""Regenerating the paper's tables (Figures 9, 13, 14, 15, 16).

Each function consumes stored runs and produces both structured values and
a rendered text table mirroring the corresponding figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro import paperdata
from repro.analysis.cdf import DEFAULT_SHAPES, Observations, observations_from_runs
from repro.core.feedback import RunOutcome
from repro.core.metrics import DiscomfortCDF
from repro.core.resources import Resource
from repro.core.run import TestcaseRun
from repro.errors import InsufficientDataError
from repro.util.stats import ConfidenceInterval
from repro.util.tables import TextTable, format_float

__all__ = [
    "BreakdownRow",
    "CellMetrics",
    "breakdown_table",
    "cell_metrics",
    "metric_tables",
    "sensitivity_grid",
]

_RESOURCES: tuple[Resource, ...] = (
    Resource.CPU,
    Resource.MEMORY,
    Resource.DISK,
)


# ---------------------------------------------------------------------------
# Figure 9: breakdown of runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreakdownRow:
    """Run counts for one task (or the total row)."""

    task: str
    nonblank_discomforted: int
    nonblank_exhausted: int
    blank_discomforted: int
    blank_exhausted: int

    @property
    def blank_discomfort_prob(self) -> float:
        total = self.blank_discomforted + self.blank_exhausted
        return self.blank_discomforted / total if total else 0.0


def breakdown_table(
    runs: Iterable[TestcaseRun] | Observations,
) -> tuple[dict[str, BreakdownRow], TextTable]:
    """Figure 9: runs grouped by task, blankness, and outcome."""
    table = Observations.of(runs)
    rows: dict[str, BreakdownRow] = {}
    tasks = sorted(set(table.task.tolist())) or [""]
    ordered = [t for t in paperdata.STUDY_TASKS if t in tasks]
    ordered += [t for t in tasks if t not in ordered]
    for task in ["total", *ordered]:
        selected = True if task == "total" else table.task == task
        counts = [
            int((group & (table.outcome == outcome)).sum())
            for group in (selected & ~table.blank, selected & table.blank)
            for outcome in (RunOutcome.DISCOMFORT, RunOutcome.EXHAUSTED)
        ]
        rows[task] = BreakdownRow(task, *counts)
    figure = TextTable(
        "Figure 9: breakdown of runs",
        ["Task", "NB-Discomf", "NB-Exhaust", "B-Discomf", "B-Exhaust", "P(blank discomfort)"],
    )
    for task, row in rows.items():
        figure.add_row(
            task,
            row.nonblank_discomforted,
            row.nonblank_exhausted,
            row.blank_discomforted,
            row.blank_exhausted,
            f"{row.blank_discomfort_prob:.2f}",
        )
    return rows, figure


# ---------------------------------------------------------------------------
# Figures 14-16: f_d, c_0.05, c_a per (task, resource) cell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellMetrics:
    """All three paper metrics for one (task, resource) cell.

    ``None`` fields mirror the paper's ``*`` (insufficient information).
    """

    task: str
    resource: Resource
    cdf: DiscomfortCDF | None
    f_d: float
    c_05: float | None
    c_a: ConfidenceInterval | None

    @property
    def has_reactions(self) -> bool:
        return self.cdf is not None and self.cdf.df_count > 0


def cell_metrics(
    runs: Iterable[TestcaseRun] | Observations,
    task: str | None,
    resource: Resource,
    shapes: Sequence[str] | None = DEFAULT_SHAPES,
    percentile: float = 0.05,
) -> CellMetrics:
    """Metrics for one cell (``task=None`` aggregates over tasks)."""
    obs = observations_from_runs(runs, resource=resource, task=task, shapes=shapes)
    label = task if task is not None else "total"
    if not obs:
        return CellMetrics(label, resource, None, 0.0, None, None)
    cdf = DiscomfortCDF(obs)
    try:
        c_05: float | None = cdf.c_percentile(percentile)
    except InsufficientDataError:
        c_05 = None
    try:
        c_a: ConfidenceInterval | None = cdf.c_mean_ci()
    except InsufficientDataError:
        c_a = None
    return CellMetrics(label, resource, cdf, cdf.f_d(), c_05, c_a)


def metric_tables(
    runs: Iterable[TestcaseRun] | Observations,
    tasks: Sequence[str] = paperdata.STUDY_TASKS,
    shapes: Sequence[str] | None = DEFAULT_SHAPES,
) -> tuple[dict[tuple[str, Resource], CellMetrics], dict[str, TextTable]]:
    """Figures 14, 15, 16 as cell metrics plus rendered tables."""
    table = Observations.of(runs)
    cells: dict[tuple[str, Resource], CellMetrics] = {}
    for resource in _RESOURCES:
        for task in tasks:
            cells[(task, resource)] = cell_metrics(table, task, resource, shapes)
        cells[("total", resource)] = cell_metrics(table, None, resource, shapes)
    headers = ["Task", "CPU", "Memory", "Disk"]
    t_fd = TextTable("Figure 14: f_d by task and resource", headers)
    t_c05 = TextTable("Figure 15: c_0.05 by task and resource", headers)
    t_ca = TextTable("Figure 16: c_a (95% CI) by task and resource", headers)
    for task in [*tasks, "total"]:
        row_fd, row_c05, row_ca = [task], [task], [task]
        for resource in _RESOURCES:
            cell = cells[(task, resource)]
            row_fd.append(f"{cell.f_d:.2f}")
            row_c05.append(format_float(cell.c_05))
            if cell.c_a is None:
                row_ca.append("*")
            else:
                row_ca.append(
                    f"{cell.c_a.mean:.2f} ({cell.c_a.low:.2f},{cell.c_a.high:.2f})"
                )
        t_fd.add_row(*row_fd)
        t_c05.add_row(*row_c05)
        t_ca.add_row(*row_ca)
    return cells, {"f_d": t_fd, "c_05": t_c05, "c_a": t_ca}


# ---------------------------------------------------------------------------
# Figure 13: qualitative sensitivity grid
# ---------------------------------------------------------------------------

#: Classifier constants (documented heuristic; Figure 13 is the authors'
#: "overall judgement from the study of the CDFs").  A cell's score is
#: ``f_d * (1 - c_05 / ramp_max)``; within each resource column, scores are
#: normalized by the column maximum and cut at these relative thresholds.
#: Applied to the paper's own published numbers, this rule reproduces 11 of
#: the 12 published letters.
SENSITIVITY_LOW_BELOW = 0.55
SENSITIVITY_HIGH_FROM = 0.95
#: A cell cannot be High sensitivity unless most runs reacted.
SENSITIVITY_HIGH_MIN_FD = 0.5
#: Relative thresholds for the per-task Total column.
TASK_TOTAL_LOW_BELOW = 0.30
#: Absolute score thresholds for the per-resource Total row.
RESOURCE_TOTAL_LOW_BELOW = 0.30
RESOURCE_TOTAL_HIGH_FROM = 0.85


def _cell_score(f_d: float, c_05: float | None, ramp_max: float) -> float:
    if f_d <= 0.0:
        return 0.0
    if c_05 is None:
        return 0.0
    return f_d * max(0.0, 1.0 - c_05 / ramp_max)


def _letter(rel: float, f_d: float) -> str:
    if rel >= SENSITIVITY_HIGH_FROM and f_d >= SENSITIVITY_HIGH_MIN_FD:
        return "H"
    if rel < SENSITIVITY_LOW_BELOW:
        return "L"
    return "M"


def sensitivity_grid(
    cells: Mapping[tuple[str, Resource], CellMetrics],
    tasks: Sequence[str] = paperdata.STUDY_TASKS,
    ramp_params: Mapping[tuple[str, Resource], tuple[float, float]] | None = None,
) -> tuple[dict[tuple[str, str], str], TextTable]:
    """Figure 13: Low/Medium/High sensitivity per task and resource.

    Returned letters are keyed by ``(task, resource.value)``, with
    ``(task, "total")`` for the task-total column and
    ``("total", resource.value)`` for the resource-total row.
    """
    ramps = ramp_params if ramp_params is not None else paperdata.RAMP_PARAMS
    scores: dict[tuple[str, Resource], float] = {}
    for resource in _RESOURCES:
        for task in tasks:
            cell = cells[(task, resource)]
            ramp_max = ramps.get((task, resource), (1.0, 0.0))[0]
            scores[(task, resource)] = _cell_score(
                cell.f_d, cell.c_05, ramp_max
            )
    letters: dict[tuple[str, str], str] = {}
    for resource in _RESOURCES:
        col_max = max(scores[(task, resource)] for task in tasks) or 1.0
        for task in tasks:
            rel = scores[(task, resource)] / col_max
            letters[(task, resource.value)] = _letter(
                rel, cells[(task, resource)].f_d
            )
    # Per-task totals: mean cell score, relative to the most sensitive task.
    task_scores = {
        task: sum(scores[(task, r)] for r in _RESOURCES) / len(_RESOURCES)
        for task in tasks
    }
    task_max = max(task_scores.values()) or 1.0
    for task in tasks:
        rel = task_scores[task] / task_max
        if rel >= SENSITIVITY_HIGH_FROM:
            letters[(task, "total")] = "H"
        elif rel < TASK_TOTAL_LOW_BELOW:
            letters[(task, "total")] = "L"
        else:
            letters[(task, "total")] = "M"
    # Per-resource total row, from the aggregated cells with the resource's
    # widest ramp as the scale (absolute thresholds).
    for resource in _RESOURCES:
        cell = cells[("total", resource)]
        ramp_max = max(
            ramps.get((task, resource), (1.0, 0.0))[0] for task in tasks
        )
        score = _cell_score(cell.f_d, cell.c_05, ramp_max)
        if score >= RESOURCE_TOTAL_HIGH_FROM:
            letters[("total", resource.value)] = "H"
        elif score < RESOURCE_TOTAL_LOW_BELOW:
            letters[("total", resource.value)] = "L"
        else:
            letters[("total", resource.value)] = "M"

    table = TextTable(
        "Figure 13: user sensitivity by task and resource",
        ["Task", "CPU", "Memory", "Disk", "Total"],
    )
    for task in tasks:
        table.add_row(
            task,
            letters[(task, "cpu")],
            letters[(task, "memory")],
            letters[(task, "disk")],
            letters[(task, "total")],
        )
    table.add_row(
        "total",
        letters[("total", "cpu")],
        letters[("total", "memory")],
        letters[("total", "disk")],
        "",
    )
    return letters, table
