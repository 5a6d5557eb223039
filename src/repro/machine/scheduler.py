"""Equal-priority CPU scheduler model (paper §2.2).

The CPU exerciser creates contention ``c``: the equivalent of ``c``
always-runnable, equal-priority threads.  The paper's worked example: with
contention 1.5 "another busy thread in the system ... will execute at a
rate 1/(1.5+1) = 40 % of the maximum possible rate", i.e. an always-busy
foreground thread receives CPU share ``1/(1+c)``.

A foreground task that is *not* always busy (demand ``d < 1``) is only
slowed once its fair share falls below its demand; until then the exerciser
really is using "the cycles in between the cycles the user is using".
"""

from __future__ import annotations

from repro.errors import ValidationError

__all__ = ["cpu_share", "cpu_slowdown"]


def cpu_share(contention: float) -> float:
    """Fair CPU share of one always-runnable foreground thread.

    ``1 / (1 + c)`` under equal-priority round-robin with ``c`` competing
    thread-equivalents.
    """
    if contention < 0:
        raise ValidationError(f"contention must be >= 0, got {contention}")
    return 1.0 / (1.0 + contention)


def cpu_slowdown(
    demand: float, contention: float, cpu_speed: float = 1.0
) -> float:
    """Latency inflation of a foreground task under CPU contention.

    Parameters
    ----------
    demand:
        Fraction of the *study machine's* CPU the task needs for unimpeded
        interactivity, in ``(0, 1]``.  Quake is near 1; typing in Word is
        far below.
    contention:
        Exerciser contention level (competing thread-equivalents).
    cpu_speed:
        Host speed relative to the study machine; a faster host has
        proportionally lower effective demand (paper question 6).

    Returns
    -------
    float
        ``max(1, d' * (1 + c))`` where ``d' = demand / cpu_speed``: no
        slowdown while the fair share still covers the demand, linear
        inflation beyond that.  An always-busy task (``d' = 1``) degrades
        as ``1 + c`` exactly as the paper's example.
    """
    if not 0.0 < demand <= 1.0:
        raise ValidationError(f"demand must be in (0, 1], got {demand}")
    if cpu_speed <= 0:
        raise ValidationError(f"cpu_speed must be positive, got {cpu_speed}")
    if contention < 0:
        raise ValidationError(f"contention must be >= 0, got {contention}")
    effective_demand = min(1.0, demand / cpu_speed)
    return float(max(1.0, effective_demand * (1.0 + contention)))

