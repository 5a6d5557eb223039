"""One-call regeneration of the paper's whole results section.

:func:`full_report` runs every analysis over a set of runs and renders
them in the paper's order: Figure 9 breakdown, Figures 10-12 CDFs,
Figures 13-16 metric tables, Figure 17 skill effects, the §3.3.5
dynamics result, and the six §1 answers.  The ``uucs analyze`` command is
a thin wrapper around it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import paperdata
from repro.analysis.cdf import Observations, aggregate_cdf
from repro.analysis.dynamics import ramp_vs_step
from repro.analysis.factors import skill_table
from repro.analysis.plots import render_cdf
from repro.analysis.questions import answer_questions
from repro.analysis.report import breakdown_table, metric_tables, sensitivity_grid
from repro.core.resources import Resource
from repro.core.run import TestcaseRun
from repro.errors import ReproError

__all__ = ["full_report"]

_CDF_FIGURES = (
    (Resource.CPU, 10, 7.0),
    (Resource.MEMORY, 11, 1.0),
    (Resource.DISK, 12, 8.0),
)


def full_report(
    runs: Iterable[TestcaseRun] | Observations,
    tasks: Sequence[str] = paperdata.STUDY_TASKS,
    include_cdf_plots: bool = True,
) -> str:
    """Render the complete results section for ``runs``."""
    table = Observations.of(runs)
    sections: list[str] = []

    _, fig9 = breakdown_table(table)
    sections.append(fig9.render())

    if include_cdf_plots:
        for resource, figure, x_max in _CDF_FIGURES:
            try:
                cdf = aggregate_cdf(table, resource)
            except ReproError:
                continue
            sections.append(
                render_cdf(
                    cdf,
                    f"Figure {figure}: CDF of discomfort for {resource.value}",
                    x_max,
                )
            )

    cells, tables = metric_tables(table, tasks=tasks)
    _, fig13 = sensitivity_grid(cells, tasks=tasks)
    sections.append(fig13.render())
    for name in ("f_d", "c_05", "c_a"):
        sections.append(tables[name].render())

    answers = answer_questions(table, tasks=tasks)  # Figure 17 is its Q4
    sections.append(skill_table(answers.skill_differences).render())

    dynamics_lines = ["Time dynamics (ramp vs step tolerated levels):"]
    for task in tasks:
        try:
            dynamics_lines.append(
                "  " + ramp_vs_step(table, task, Resource.CPU).describe()
            )
        except ReproError:
            dynamics_lines.append(f"  {task}/cpu: insufficient pairs")
    sections.append("\n".join(dynamics_lines))

    sections.append(answers.render())
    return "\n\n".join(sections)
