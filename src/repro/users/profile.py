"""User profiles and self-rated skill levels (paper §3.1, §3.3.4).

Study participants rated themselves "Power User", "Typical User", or
"Beginner" in each of PC usage, Windows, Word, Powerpoint, IE, and Quake.
:class:`UserProfile` carries those ratings plus the latent per-user factors
(tolerance personality, reaction speed) that give the population its
between-user variance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ValidationError

__all__ = ["RATING_CATEGORIES", "SkillLevel", "UserProfile"]

#: Self-rating categories from the study questionnaire.
RATING_CATEGORIES: tuple[str, ...] = (
    "pc",
    "windows",
    "word",
    "powerpoint",
    "ie",
    "quake",
)


class SkillLevel(str, enum.Enum):
    """A self-perceived skill level."""

    POWER = "power"
    TYPICAL = "typical"
    BEGINNER = "beginner"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "SkillLevel":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValidationError(f"unknown skill level {text!r}") from None


@dataclass(frozen=True)
class UserProfile:
    """A study participant: identity, self-ratings, latent factors."""

    user_id: str
    #: Self-rating per category; missing categories default to TYPICAL.
    ratings: Mapping[str, SkillLevel] = field(default_factory=dict)
    #: Persistent multiplicative tolerance factor (1.0 = population center);
    #: a stoic user has > 1, an easily-irritated one < 1.
    tolerance_factor: float = 1.0
    #: Mean seconds between noticing degradation and pressing the hot-key.
    reaction_delay_mean: float = 3.0

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ValidationError("user_id must be non-empty")
        if self.tolerance_factor <= 0:
            raise ValidationError(
                f"tolerance_factor must be positive, got {self.tolerance_factor}"
            )
        if self.reaction_delay_mean <= 0:
            raise ValidationError(
                f"reaction_delay_mean must be positive, got "
                f"{self.reaction_delay_mean}"
            )
        for category in self.ratings:
            if category not in RATING_CATEGORIES:
                raise ValidationError(
                    f"unknown rating category {category!r}; expected one of "
                    f"{RATING_CATEGORIES}"
                )

    def rating(self, category: str) -> SkillLevel:
        """Self-rating for ``category`` (defaults to TYPICAL)."""
        if category not in RATING_CATEGORIES:
            raise ValidationError(f"unknown rating category {category!r}")
        return self.ratings.get(category, SkillLevel.TYPICAL)

    def rating_for_task(self, task: str) -> SkillLevel:
        """Self-rating in the application behind ``task``."""
        category = task if task in RATING_CATEGORIES else "pc"
        return self.rating(category)

    def questionnaire(self) -> dict[str, str]:
        """The questionnaire record stored with results."""
        ratings = self.ratings
        return {
            cat: str(ratings.get(cat, SkillLevel.TYPICAL))
            for cat in RATING_CATEGORIES
        }
