"""Seeded random-number plumbing.

The whole library avoids global RNG state: every stochastic entry point
accepts either an integer seed or a :class:`numpy.random.Generator`.  These
helpers normalize that argument and derive statistically independent child
generators for sub-components (users, clients, exercisers) so that a single
top-level seed reproduces an entire study deterministically regardless of
execution order.
"""

from __future__ import annotations

import operator
from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a nondeterministic generator; an existing generator is
    returned unchanged; anything else is fed to ``default_rng``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def config_seed(seed: object, error: type[Exception]) -> int:
    """``seed`` as a plain ``int`` (a numpy integer included), for a
    config to store; raises ``error`` unless it is a non-negative
    integer."""
    try:
        value = operator.index(seed)
        if value >= 0:
            return value
    except TypeError:
        pass
    raise error(f"seed must be a non-negative integer, got {seed!r}")


def _fnv_words(part: object) -> tuple[int, int]:
    """The two uint32 spawn-key words :func:`derive_rng` hashes one key
    ``part`` into: 64-bit FNV-1a over ``repr(part)``, low word first."""
    h = 14695981039346656037  # FNV-1a offset basis
    for byte in repr(part).encode():
        h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return (h & 0xFFFFFFFF, h >> 32)


def derive_rng(seed: SeedLike, *key: object) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and a hashable ``key``.

    Unlike :func:`spawn_child`, derivation is *stable*: the same
    ``(seed, key)`` pair always yields the same stream, independent of how
    many other streams were derived before it.  ``seed`` must be an ``int``
    or ``SeedSequence`` (generators cannot be re-derived stably).
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "derive_rng needs an int or SeedSequence seed; a Generator "
            "cannot be re-derived deterministically"
        )
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
    else:
        entropy = seed
    # Hash the key into a stable sequence of 32-bit words.
    words: list[int] = []
    for part in key:
        words.extend(_fnv_words(part))
    if entropy is None:
        seq = np.random.SeedSequence(spawn_key=tuple(words))
    else:
        seq = np.random.SeedSequence(entropy, spawn_key=tuple(words))
    return np.random.default_rng(seq)


def spawn_child(rng: np.random.Generator) -> np.random.Generator:
    """Spawn an independent child generator from ``rng``.

    Order-dependent but cheap; use when the call order is itself
    deterministic (e.g. inside a sequential simulation loop).
    """
    return np.random.default_rng(rng.integers(0, 2**63 - 1, dtype=np.int64))
