"""Answering the paper's six introduction questions from study data.

§1 poses six questions about users and resource borrowing; §3 answers
1-5 from the controlled study and defers 6 (raw host power) to the
Internet-wide study.  :func:`answer_questions` runs the whole analysis
battery over a set of runs and renders the answers as a report — the
"so what" layer on top of the figure-regeneration machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro import paperdata
from repro.analysis.cdf import Observations
from repro.analysis.dynamics import FrogInPotResult, ramp_vs_step
from repro.analysis.factors import SkillDifference, skill_level_differences
from repro.analysis.report import cell_metrics
from repro.core.resources import Resource
from repro.core.run import TestcaseRun
from repro.errors import InsufficientDataError

__all__ = ["QuestionReport", "answer_questions"]

_RESOURCES = (Resource.CPU, Resource.MEMORY, Resource.DISK)


@dataclass(frozen=True)
class QuestionReport:
    """Structured answers to the six §1 questions."""

    #: Q1 — safe borrowing levels: (resource -> c_0.05 or None).
    safe_levels: dict[Resource, float | None]
    #: Q2 — resource dependence: f_d per resource (aggregated).
    resource_fd: dict[Resource, float]
    #: Q3 — context dependence: CPU c_a per task (None where starved).
    context_ca: dict[str, float | None]
    #: Q4 — user dependence: significant skill differences found.
    skill_differences: tuple[SkillDifference, ...]
    #: Q5 — time dynamics: the Powerpoint/CPU frog-in-pot comparison
    #: (None when the runs lack ramp/step pairs).
    frog_in_pot: FrogInPotResult | None
    #: Q6 — host-speed bins from an Internet study, if provided.
    host_speed: tuple | None

    def render(self) -> str:
        lines = ["Answers to the paper's six questions", "=" * 38, ""]

        lines.append("Q1  What level of borrowing discomforts a significant")
        lines.append("    fraction of users?  (level at 5% discomfort)")
        for resource, level in self.safe_levels.items():
            shown = "beyond explored range" if level is None else f"{level:.2f}"
            lines.append(f"      {resource.value:7s} {shown}")

        lines.append("")
        lines.append("Q2  How does it depend on the resource?  (f_d aggregated)")
        ordered = sorted(self.resource_fd.items(), key=lambda kv: -kv[1])
        for resource, fd in ordered:
            lines.append(f"      {resource.value:7s} {fd:.2f}")
        most, least = ordered[0][0].value, ordered[-1][0].value
        lines.append(f"      -> borrow {least} aggressively, {most} less so")

        lines.append("")
        lines.append("Q3  How does it depend on context?  (CPU c_a per task)")
        for task, ca in self.context_ca.items():
            shown = "*" if ca is None else f"{ca:.2f}"
            lines.append(f"      {task:11s} {shown}")

        lines.append("")
        lines.append("Q4  How does it depend on the user?")
        if self.skill_differences:
            lines.append(
                f"      {len(self.skill_differences)} significant skill-level "
                "differences; e.g."
            )
            for diff in self.skill_differences[:3]:
                lines.append("        " + diff.describe())
        else:
            lines.append("      no differences reached significance here")

        lines.append("")
        lines.append("Q5  How does it depend on time dynamics?")
        if self.frog_in_pot is not None:
            lines.append("      " + self.frog_in_pot.describe())
            if self.frog_in_pot.supports_frog_in_pot:
                lines.append(
                    "      -> slow ramps are tolerated above abrupt steps "
                    "(frog-in-the-pot)"
                )
        else:
            lines.append("      (no ramp/step pairs in these runs)")

        lines.append("")
        lines.append("Q6  How does it depend on raw host power?")
        if self.host_speed:
            slowest, fastest = self.host_speed[0], self.host_speed[-1]
            lines.append(
                f"      f_d falls from {slowest.f_d:.2f} (speed "
                f"~{slowest.mean_speed:.2f}) to {fastest.f_d:.2f} "
                f"(speed ~{fastest.mean_speed:.2f})"
            )
            lines.append("      -> faster hosts absorb more borrowing")
        else:
            lines.append(
                "      requires the Internet-wide study "
                "(heterogeneous hosts); pass host_speed_bins"
            )
        return "\n".join(lines)


def answer_questions(
    runs: Iterable[TestcaseRun] | Observations,
    tasks: Sequence[str] = paperdata.STUDY_TASKS,
    host_speed_bins: Sequence | None = None,
    alpha: float = 0.05,
) -> QuestionReport:
    """Run the full analysis battery and structure the six answers."""
    table = Observations.of(runs)
    safe_levels: dict[Resource, float | None] = {}
    resource_fd: dict[Resource, float] = {}
    for resource in _RESOURCES:
        cell = cell_metrics(table, None, resource)
        safe_levels[resource] = cell.c_05
        resource_fd[resource] = cell.f_d

    context_ca: dict[str, float | None] = {}
    for task in tasks:
        cell = cell_metrics(table, task, Resource.CPU)
        context_ca[task] = None if cell.c_a is None else cell.c_a.mean

    differences = tuple(
        skill_level_differences(table, tasks=tasks, alpha=alpha)
    )

    frog: FrogInPotResult | None
    try:
        frog = ramp_vs_step(table, "powerpoint", Resource.CPU)
    except InsufficientDataError:
        frog = None

    return QuestionReport(
        safe_levels=safe_levels,
        resource_fd=resource_fd,
        context_ca=context_ca,
        skill_differences=differences,
        frog_in_pot=frog,
        host_speed=tuple(host_speed_bins) if host_speed_bins else None,
    )
