"""Skill-level factor analysis (paper §3.3.4, Figure 17).

"We compared the average discomfort contention levels for the different
groups of users defined by their self-ratings for each context/resource
combination using unpaired t-tests."

Self-ratings are read from each run's context extras
(``rating_<category>``), which the study drivers record from the
questionnaire, so the analysis works from stored runs alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import paperdata
from repro.analysis.cdf import DEFAULT_SHAPES, Observations
from repro.core.feedback import RunOutcome
from repro.core.resources import Resource
from repro.core.run import TestcaseRun
from repro.errors import InsufficientDataError
from repro.users.profile import RATING_CATEGORIES, SkillLevel
from repro.util.stats import TTestResult, unpaired_t_test
from repro.util.tables import TextTable

__all__ = ["SkillDifference", "skill_level_differences", "skill_table"]

#: Ordered pairs compared, most skilled first (Figure 17's rows compare
#: Power vs. Typical and Typical vs. Beginner).
_COMPARISONS: tuple[tuple[SkillLevel, SkillLevel], ...] = (
    (SkillLevel.POWER, SkillLevel.TYPICAL),
    (SkillLevel.TYPICAL, SkillLevel.BEGINNER),
)

_RESOURCES = (Resource.CPU, Resource.MEMORY, Resource.DISK)


@dataclass(frozen=True)
class SkillDifference:
    """One Figure 17 row: a significant between-group difference."""

    task: str
    resource: Resource
    category: str
    group_high: SkillLevel
    group_low: SkillLevel
    test: TTestResult

    @property
    def p_value(self) -> float:
        return self.test.p_value

    @property
    def diff(self) -> float:
        """How much *less* contention the more-skilled group tolerates."""
        return -self.test.diff if self.test.diff < 0 else self.test.diff

    @property
    def skilled_less_tolerant(self) -> bool:
        """True when the more-skilled group reacted at lower contention."""
        # test compares a=high-skill, b=low-skill; diff = mean(b) - mean(a).
        return self.test.diff > 0

    def describe(self) -> str:
        return (
            f"{self.task}/{self.resource.value}: {self.category} "
            f"{self.group_high} vs {self.group_low} "
            f"p={self.p_value:.3f} diff={self.test.diff:.3f}"
        )


def skill_level_differences(
    runs: Iterable[TestcaseRun] | Observations,
    tasks: Sequence[str] = paperdata.STUDY_TASKS,
    categories: Sequence[str] = RATING_CATEGORIES,
    alpha: float = 0.05,
    shapes: Sequence[str] | None = DEFAULT_SHAPES,
    significant_only: bool = True,
) -> list[SkillDifference]:
    """All (task, resource, category, comparison) t-tests, most
    significant first; optionally only those with ``p < alpha``."""
    table = Observations.of(runs)
    results: list[SkillDifference] = []
    for task in tasks:
        for resource in _RESOURCES:
            reacted = table.cell(resource, task, shapes)
            reacted &= table.outcome == RunOutcome.DISCOMFORT
            levels = np.array([o.level for o in table.select(reacted)], dtype=float)
            for category in categories:
                # Only an application's own rating or the general ratings
                # plausibly moderate that task's comfort; testing every
                # cross pairing would be multiple-comparison noise.
                if category not in ("pc", "windows", task):
                    continue
                rating = table.rating(category)[reacted]
                for high, low in _COMPARISONS:
                    a = levels[rating == high.value]
                    b = levels[rating == low.value]
                    try:
                        test = unpaired_t_test(a, b)
                    except InsufficientDataError:
                        continue
                    diff = SkillDifference(
                        task, resource, category, high, low, test
                    )
                    if not significant_only or test.p_value < alpha:
                        results.append(diff)
    results.sort(key=lambda d: d.p_value)
    return results


def skill_table(differences: Sequence[SkillDifference]) -> TextTable:
    """Figure 17 as a text table."""
    table = TextTable(
        "Figure 17: significant differences based on user-perceived skill",
        ["App", "Rsrc", "Rating", "p", "Diff", "n"],
    )
    for d in differences:
        table.add_row(
            d.task,
            d.resource.value,
            f"{d.category} {d.group_high} vs {d.group_low}",
            f"{d.p_value:.3f}",
            f"{d.test.diff:.3f}",
            f"{d.test.n_a}+{d.test.n_b}",
        )
    return table
