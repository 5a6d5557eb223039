"""Synthetic user behavior: when does a user press the hot-key?

:class:`SimulatedUser` implements the :class:`repro.core.session.FeedbackSource`
protocol.  At the start of each run it samples, per exercised resource, a
latent discomfort threshold from the calibrated tolerance table
(:mod:`repro.users.tolerance`), adjusted for the user's persistent
personality and self-rated skill.  During the run the user reacts when
contention stays at or above the threshold for one reaction delay; an
independent noise-floor hazard produces the spurious feedback the paper
observed on blank testcases in IE and Quake (Figure 9).

Threshold semantics and the frog-in-pot effect (§3.3.5): the calibrated
lognormal is the *ramp* threshold (the paper's CDFs come from ramp
testcases).  Abrupt exposure — any non-ramp shape — lowers the effective
threshold by the cell's ``ramp_bonus``, so ramps tolerate more than steps,
as the paper observed for Powerpoint/CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro import paperdata
from repro.core.feedback import DiscomfortEvent
from repro.core.resources import Resource
from repro.core.run import RunContext
from repro.core.session import InteractivitySample
from repro.core.testcase import Testcase
from repro.errors import ValidationError
from repro.users.profile import SkillLevel, UserProfile
from repro.users.tolerance import ToleranceTable
from repro.util.rng import SeedLike, ensure_rng

__all__ = ["BehaviorParams", "SimulatedUser"]

_SKILL_STEP = {SkillLevel.POWER: -1.0, SkillLevel.TYPICAL: 0.0, SkillLevel.BEGINNER: 1.0}


@dataclass(frozen=True)
class BehaviorParams:
    """Population-level behavioral constants."""

    #: Probability of a spurious discomfort click during a 120 s *blank*
    #: testcase, per task (Figure 9's noise floor).
    noise_prob_blank: Mapping[str, float] = field(
        default_factory=lambda: dict(paperdata.BLANK_DISCOMFORT_PROB)
    )
    #: Noise-hazard multiplier during non-blank runs.  Kept well below 1:
    #: a user already watching real degradation attributes ambient glitches
    #: to the borrowing and reacts through the threshold path instead.
    noise_inrun_factor: float = 0.06
    #: Lognormal sigma of the per-run reaction delay.
    reaction_delay_sigma: float = 0.5
    #: Additive threshold shift per skill step in the task's own
    #: application rating, as a fraction of the cell's mean threshold.
    #: Negative steps (power users) lower the threshold: experienced users
    #: "have higher expectations from the interactive application" (§3.3.4).
    skill_app_fraction: float = 0.15
    #: Same, for each of the general PC and Windows ratings.
    skill_general_fraction: float = 0.06
    #: Reference blank-testcase duration for the noise probability.
    noise_reference_duration: float = 120.0

    def __post_init__(self) -> None:
        for task, p in self.noise_prob_blank.items():
            if not 0.0 <= p <= 1.0:
                raise ValidationError(
                    f"noise probability for {task!r} must be in [0,1], got {p}"
                )
        if not 0.0 <= self.noise_inrun_factor <= 1.0:
            raise ValidationError("noise_inrun_factor must be in [0,1]")
        if self.reaction_delay_sigma < 0:
            raise ValidationError("reaction_delay_sigma must be >= 0")

    def noise_probability(self, task: str, duration: float, blank: bool) -> float:
        """Spurious-click probability for one run."""
        base = self.noise_prob_blank.get(task, 0.0)
        scaled = base * duration / self.noise_reference_duration
        if not blank:
            scaled *= self.noise_inrun_factor
        return min(1.0, scaled)


class SimulatedUser:
    """A synthetic study participant driving discomfort feedback."""

    def __init__(
        self,
        profile: UserProfile,
        table: ToleranceTable,
        params: BehaviorParams | None = None,
        seed: SeedLike = None,
    ):
        self._profile = profile
        self._table = table
        self._params = params if params is not None else BehaviorParams()
        self._rng = ensure_rng(seed)
        self._tolerance_factor = profile.tolerance_factor
        # (task, resource) -> (the spec's draw, skill shift, ramp bonus),
        # filled on the cell's first draw: all are fixed by the profile,
        # params and table.
        self._cells: dict[tuple[str, Resource], tuple] = {}
        # Per-run state, set by begin_run.
        self._thresholds: dict[Resource, float] = {}
        self._crossed_at: dict[Resource, float | None] = {}
        self._delay: float = 0.0
        self._noise_time: float | None = None

    @property
    def profile(self) -> UserProfile:
        return self._profile

    @property
    def params(self) -> BehaviorParams:
        return self._params

    # Read-only views of the per-run state armed by begin_run; the
    # analytic study engine (repro.study.engine) replays the poll loop's
    # decision in closed form from exactly these values.

    @property
    def armed_thresholds(self) -> dict[Resource, float]:
        """Effective thresholds sampled for the current run."""
        return dict(self._thresholds)

    @property
    def reaction_delay(self) -> float:
        """Seconds of sustained crossing before this run's feedback."""
        return self._delay

    @property
    def noise_time(self) -> float | None:
        """Scheduled spurious-click time for this run, if any."""
        return self._noise_time

    # -- threshold construction -------------------------------------------

    def _skill_shift(self, task: str, scale: float) -> float:
        """Additive threshold shift from the user's self-ratings."""
        if not math.isfinite(scale):
            return 0.0
        p = self._params
        shift = 0.0
        shift += (
            _SKILL_STEP[self._profile.rating_for_task(task)]
            * p.skill_app_fraction
            * scale
        )
        for category in ("pc", "windows"):
            shift += (
                _SKILL_STEP[self._profile.rating(category)]
                * p.skill_general_fraction
                * scale
            )
        return shift

    def threshold_for(
        self, task: str, resource: Resource, shape: str
    ) -> float:
        """Sample this user's effective threshold for one run.

        ``inf`` means the user never reacts in the explored range.
        """
        cell = self._cells.get((task, resource))
        if cell is None:
            spec = self._table.spec(task, resource)
            cell = self._cells[task, resource] = (
                spec.sample_threshold,
                self._skill_shift(task, spec.mean_threshold()),
                spec.ramp_bonus,
            )
        draw, shift, ramp_bonus = cell
        base = draw(self._rng)
        if math.isinf(base):
            return base
        threshold = base * self._tolerance_factor + shift
        if shape != "ramp":
            threshold -= ramp_bonus
        return max(1e-3, threshold)

    # -- FeedbackSource protocol -------------------------------------------

    def begin_run(self, testcase: Testcase, context: RunContext) -> None:
        task = context.task or "generic"
        self._thresholds = {}
        self._crossed_at = {}
        for resource, fn in testcase.functions.items():
            if fn.is_blank():
                continue
            self._thresholds[resource] = self.threshold_for(
                task, resource, fn.shape
            )
            self._crossed_at[resource] = None
        delay_mu = -self._params.reaction_delay_sigma**2 / 2.0
        self._delay = self._profile.reaction_delay_mean * float(
            np.exp(
                delay_mu
                + self._params.reaction_delay_sigma * self._rng.standard_normal()
            )
        )
        p_noise = self._params.noise_probability(
            task, testcase.duration, testcase.is_blank()
        )
        if self._rng.random() < p_noise:
            self._noise_time = float(self._rng.uniform(0.0, testcase.duration))
        else:
            self._noise_time = None

    def poll(
        self,
        t: float,
        levels: Mapping[Resource, float],
        interactivity: InteractivitySample,
    ) -> DiscomfortEvent | None:
        # Spurious (noise-floor) feedback fires regardless of contention.
        if self._noise_time is not None and t >= self._noise_time:
            return DiscomfortEvent(
                offset=self._noise_time, levels=dict(levels), source="noise"
            )
        # Threshold path: react once contention has stayed at or above the
        # threshold for one reaction delay; dipping below resets the clock
        # (matters for sine/sawtooth/queueing shapes).
        for resource, threshold in self._thresholds.items():
            level = float(levels.get(resource, 0.0))
            if level >= threshold:
                crossed = self._crossed_at[resource]
                if crossed is None:
                    self._crossed_at[resource] = crossed = t
                if t - crossed >= self._delay:
                    return DiscomfortEvent(
                        offset=t, levels=dict(levels), source="simulated"
                    )
            else:
                self._crossed_at[resource] = None
        return None

    def __repr__(self) -> str:
        return f"SimulatedUser({self._profile.user_id})"
