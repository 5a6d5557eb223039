"""Time-dynamics analysis: the "frog in the pot" (paper §3.3.5).

The study paired ramp and step testcases to ask whether users tolerate a
slow ramp to a level better than an abrupt step to the same level.  For
each (user, task, resource) with both a ramp and a step run, we compare the
contention level tolerated in each: the discomfort level for reacting runs,
or the maximum applied level for exhausted runs (the user tolerated at
least that much).  Only runs with an observation pair, as in every CDF:
aborted and multi-resource runs say nothing about one resource.

The paper reports, for Powerpoint/CPU, that 96 % of users tolerated a
higher level on the ramp, with a mean difference of 0.22 at p = 0.0001.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.analysis.cdf import Observations
from repro.core.resources import Resource
from repro.core.run import TestcaseRun
from repro.errors import InsufficientDataError
from repro.util.stats import TTestResult, paired_t_test

__all__ = ["FrogInPotResult", "ramp_vs_step"]


@dataclass(frozen=True)
class FrogInPotResult:
    """Paired ramp-vs-step comparison for one (task, resource) cell."""

    task: str
    resource: Resource
    n_pairs: int
    #: Fraction of pairs tolerating a strictly higher level on the ramp.
    fraction_higher_on_ramp: float
    #: Mean (ramp level - step level) over pairs.
    mean_difference: float
    #: Paired t-test of ramp vs step levels.
    test: TTestResult

    @property
    def supports_frog_in_pot(self) -> bool:
        """True when ramps are tolerated significantly better than steps."""
        return (
            self.mean_difference > 0
            and self.fraction_higher_on_ramp > 0.5
            and self.test.p_value < 0.05
        )

    def describe(self) -> str:
        return (
            f"{self.task}/{self.resource.value}: {self.n_pairs} pairs, "
            f"{100 * self.fraction_higher_on_ramp:.0f}% higher on ramp, "
            f"mean diff {self.mean_difference:+.3f}, p={self.test.p_value:.2g}"
        )


def ramp_vs_step(
    runs: Iterable[TestcaseRun] | Observations,
    task: str,
    resource: Resource,
) -> FrogInPotResult:
    """Pair each user's ramp and step runs for one cell and compare."""
    table = Observations.of(runs)
    # An observation's level is the level tolerated; a user's last run wins.
    ramp, step = (
        {o.user_id: o.level for o in table.select(table.cell(resource, task, (s,)))}
        for s in ("ramp", "step")
    )
    users = sorted(ramp.keys() & step.keys())
    if len(users) < 2:
        raise InsufficientDataError(
            f"need ramp+step pairs for >=2 users in ({task}, "
            f"{resource.value}); found {len(users)}"
        )
    ramp_levels = np.array([ramp[u] for u in users])
    step_levels = np.array([step[u] for u in users])
    test = paired_t_test(step_levels, ramp_levels)
    return FrogInPotResult(
        task=task,
        resource=resource,
        n_pairs=len(users),
        fraction_higher_on_ramp=float(np.mean(ramp_levels > step_levels)),
        mean_difference=float(np.mean(ramp_levels - step_levels)),
        test=test,
    )
