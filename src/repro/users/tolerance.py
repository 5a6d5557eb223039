"""Discomfort-threshold calibration.

Each (task, resource) cell gets a :class:`ToleranceSpec`: with probability
``1 - p_react`` a user never reacts within the explored contention range
(the paper's "exhausted region"); otherwise their discomfort threshold is
drawn from a lognormal distribution.

:func:`calibrate_lognormal` solves the lognormal parameters in closed form
from the paper's published cell statistics so that, in expectation:

* the mean observed discomfort level matches ``c_a`` (Figure 16), and
* the overall 5th percentile matches ``c_0.05`` (Figure 15):
  ``p_react * F_T(c_05) = 0.05``.

With ``m = ln(c_a)``, ``q = ln(c_05)``, ``z = Phi^{-1}(0.05 / p_react)``:

* mean condition:      ``mu + sigma^2 / 2 = m``
* quantile condition:  ``mu + z * sigma = q``

subtracting gives ``sigma^2/2 - z*sigma - (m - q) = 0``, whose positive
root is ``sigma = z + sqrt(z^2 + 2(m - q))``.

``Phi`` and ``Phi^{-1}`` are :func:`repro.util.normal.ndtr` and
``ndtri``: in-repo ports of the Cephes kernels that ``scipy.special``
runs and ``scipy.stats.norm.cdf`` and ``norm.ppf`` dispatch to, with the
same bits, so drawing a threshold loads no part of scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from repro import paperdata
from repro.core.resources import Resource
from repro.errors import ValidationError
from repro.util.normal import ndtr, ndtri

__all__ = [
    "ToleranceSpec",
    "ToleranceTable",
    "calibrate_lognormal",
    "paper_calibrated_table",
]


@dataclass(frozen=True)
class ToleranceSpec:
    """Threshold distribution for one (task, resource) cell."""

    task: str
    resource: Resource
    #: Probability a user reacts somewhere within the explored range.
    p_react: float
    #: Lognormal parameters of the reactive users' threshold.
    mu: float
    sigma: float
    #: Additive threshold bonus under gradual (ramp) exposure — the
    #: frog-in-pot habituation effect (§3.3.5).
    ramp_bonus: float = 0.0
    #: Largest contention the study explores for this cell (the ramp's
    #: maximum).  ``p_react`` is the probability of reacting *within the
    #: explored range*, so reactive draws are conditioned on ``T <=
    #: range_max``; ``None`` disables truncation.
    range_max: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_react <= 1.0:
            raise ValidationError(f"p_react must be in [0,1], got {self.p_react}")
        if self.p_react > 0 and self.sigma < 0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")
        if self.ramp_bonus < 0:
            raise ValidationError(f"ramp_bonus must be >= 0, got {self.ramp_bonus}")
        if self.range_max is not None and self.range_max <= 0:
            raise ValidationError(f"range_max must be positive, got {self.range_max}")

    @cached_property
    def f_max(self) -> float:
        """Truncation mass ``F(range_max)``, a per-spec constant.

        Requires ``range_max``.  The scalar draw and the batch engine's
        vectorized replay both read this one value.
        """
        z_max = (math.log(self.range_max) - self.mu) / max(self.sigma, 1e-12)
        return ndtr(z_max)

    def sample_threshold(self, rng: np.random.Generator) -> float:
        """Draw one user-run threshold; ``inf`` for never-reacting draws.

        Reactive draws are inverse-CDF samples of the lognormal truncated
        at ``range_max`` (when set), so ``p_react`` really is the fraction
        of runs that react within the explored contention range.
        """
        if self.p_react <= 0.0 or rng.random() >= self.p_react:
            return math.inf
        if self.range_max is None:
            return float(np.exp(self.mu + self.sigma * rng.standard_normal()))
        # A uniform on [0, f_max): the same bits as numpy's
        # ``uniform(0.0, f_max)`` (``0.0 + (f_max - 0.0) * random()``)
        # without its per-call argument handling, and the product the
        # batch engine's vectorized replay (study/batch.py) applies to
        # its stored ``random()`` draws before the same ``ndtri``.
        u = self.f_max * rng.random()
        return math.exp(self.mu + self.sigma * ndtri(u))

    def mean_threshold(self) -> float:
        """Mean threshold of reactive users, ``exp(mu + sigma^2/2)``."""
        if self.p_react <= 0.0:
            return math.inf
        return float(math.exp(self.mu + self.sigma**2 / 2.0))

    def cdf(self, level: float) -> float:
        """Unconditional probability a user reacts at or below ``level``.

        With ``range_max`` set, reactive thresholds follow the lognormal
        truncated there (as :meth:`sample_threshold` draws them): the
        probability is ``p_react * F(level) / f_max`` below ``range_max``
        and exactly ``p_react`` from it on.
        """
        if self.p_react <= 0.0 or level <= 0.0:
            return 0.0
        if self.range_max is not None and level >= self.range_max:
            return self.p_react
        z = (math.log(level) - self.mu) / max(self.sigma, 1e-12)
        if self.range_max is None:
            return self.p_react * ndtr(z)
        if self.f_max == 0.0:
            # All the mass lies above range_max: a reactive draw is
            # ``exp(mu + sigma * ndtri(0.0)) == 0.0`` (NaN if sigma is 0).
            return self.p_react
        return self.p_react * ndtr(z) / self.f_max


def calibrate_lognormal(
    c_a: float,
    c_05: float | None,
    p_react: float,
    p: float = 0.05,
    default_sigma: float = 0.6,
) -> tuple[float, float]:
    """Solve lognormal ``(mu, sigma)`` for a cell (see module docstring).

    Falls back to ``default_sigma`` when ``c_05`` is unavailable, when the
    quantile condition is infeasible (``p >= p_react``), or when the
    closed form degenerates (``c_05 >= c_a`` with non-negative ``z``).
    """
    if c_a <= 0:
        raise ValidationError(f"c_a must be positive, got {c_a}")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must be in (0,1), got {p}")
    m = math.log(c_a)
    if c_05 is None or c_05 <= 0 or p >= p_react:
        sigma = default_sigma
        return m - sigma**2 / 2.0, sigma
    z = ndtri(p / p_react)
    r = m - math.log(c_05)
    disc = z * z + 2.0 * r
    if disc <= 0:
        sigma = default_sigma
        return m - sigma**2 / 2.0, sigma
    sigma = z + math.sqrt(disc)
    if sigma <= 1e-6:
        sigma = default_sigma
    return m - sigma**2 / 2.0, sigma


class ToleranceTable:
    """Tolerance specs for every (task, resource) cell of a study."""

    def __init__(self, specs: Mapping[tuple[str, Resource], ToleranceSpec]):
        if not specs:
            raise ValidationError("tolerance table may not be empty")
        self._specs = dict(specs)

    def spec(self, task: str, resource: Resource) -> ToleranceSpec:
        """Cell spec; unknown cells fall back to a never-react spec."""
        key = (task, resource)
        if key in self._specs:
            return self._specs[key]
        return ToleranceSpec(task, resource, p_react=0.0, mu=0.0, sigma=1.0)

    def cells(self) -> tuple[tuple[str, Resource], ...]:
        return tuple(sorted(self._specs, key=lambda k: (k[0], k[1].value)))

    def __len__(self) -> int:
        return len(self._specs)


def paper_calibrated_table(
    ramp_bonus_fraction: float = 0.05,
) -> ToleranceTable:
    """The tolerance table calibrated from the paper's Figures 14-16.

    Cells marked ``*`` in the paper (Word/Memory) become never-react specs.
    The Powerpoint/CPU ramp bonus is pinned to the paper's measured
    frog-in-pot difference (0.22); other cells get a small default bonus of
    ``ramp_bonus_fraction * c_a``.
    """
    specs: dict[tuple[str, Resource], ToleranceSpec] = {}
    for task in paperdata.STUDY_TASKS:
        for resource in (Resource.CPU, Resource.MEMORY, Resource.DISK):
            published = paperdata.cell(task, resource)
            if published.c_a is None or published.f_d <= 0.0:
                specs[(task, resource)] = ToleranceSpec(
                    task, resource, p_react=0.0, mu=0.0, sigma=1.0
                )
                continue
            mu, sigma = calibrate_lognormal(
                published.c_a, published.c_05, published.f_d
            )
            if task == "powerpoint" and resource is Resource.CPU:
                bonus = paperdata.FROG_IN_POT["mean_difference"]
            else:
                bonus = ramp_bonus_fraction * published.c_a
            ramp_max = paperdata.RAMP_PARAMS[(task, resource)][0]
            specs[(task, resource)] = ToleranceSpec(
                task,
                resource,
                p_react=published.f_d,
                mu=mu,
                sigma=sigma,
                ramp_bonus=bonus,
                range_max=ramp_max,
            )
    return ToleranceTable(specs)
