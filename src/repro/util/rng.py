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
from typing import Iterator, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
#: numpy SeedSequence entropy-pool hash constants (O'Neill's seed
#: sequence algorithm, as shipped in numpy.random.bit_generator).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: PCG64's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Indices :meth:`DerivedStream.reseated` hashes states for at once
#: (memory flat in the range's length).
_STATE_BLOCK = 1024


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

    Derivation is *stable*: the same ``(seed, key)`` pair always yields
    the same stream, independent of how many other streams were derived
    before it.  ``seed`` must be an ``int`` or ``SeedSequence``
    (generators cannot be re-derived stably).
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


class DerivedStream:
    """The generators of one ``derive_rng(seed, label, index)`` family.

    ``derive_rng`` costs one SeedSequence construction plus one
    PCG64/Generator allocation per call.  This class has numpy mix the
    entropy and label words into a SeedSequence pool once, replays only
    the rest of numpy's hash — folding in each index's words — and
    PCG64's seeding, for many indices at once in numpy arrays, and
    re-seats a caller's Generator per index through the state setter.
    A re-seated Generator is bit- and stream-identical to
    ``derive_rng(seed, label, index)``, which the tests assert.

    ``entropy`` is a non-negative ``int``, as every config stores its
    seed.
    """

    __slots__ = ("pool", "hash_const")

    def __init__(self, entropy: int, label: str):
        self.pool = np.random.SeedSequence(
            entropy, spawn_key=_fnv_words(label)
        ).pool
        # Each hashmix call advanced numpy's hash constant by one
        # _MULT_A factor: 16 to fill the pool from the first 4 words and
        # cross-mix it, then 4 per later word.  The words are the
        # entropy's, zero-padded to 4, then the label's 2.
        n_words = max(4, (entropy.bit_length() + 31) // 32)
        self.hash_const = (
            _INIT_A * pow(_MULT_A, 16 + 4 * (n_words - 2), 1 << 32) & _M32
        )

    def seeds(self, w0, w1) -> list[tuple[int, int]]:
        """PCG64 ``(state, inc)`` for each spawn-key tail ``(w0[k],
        w1[k])`` (indices' FNV words), hashed for all indices at once
        in uint32 arrays, whose arithmetic wraps exactly like the
        ``& _M32`` of the scalar hash."""
        n = len(w0)
        u32 = np.uint32
        pool = [np.full(n, word, dtype=u32) for word in self.pool]
        hc = self.hash_const
        for word in (np.asarray(w0, dtype=u32), np.asarray(w1, dtype=u32)):
            for i in range(4):
                val = word ^ u32(hc)
                hc = (hc * _MULT_A) & _M32
                val = val * u32(hc)
                val ^= val >> 16
                r = pool[i] * u32(_MIX_L) - val * u32(_MIX_R)
                pool[i] = r ^ (r >> 16)
        # generate_state(4, uint64): 8 uint32 words off the pool ...
        hc = _INIT_B
        out = []
        for i in range(8):
            v = pool[i & 3] ^ u32(hc)
            hc = (hc * _MULT_B) & _M32
            v = v * u32(hc)
            out.append((v ^ (v >> 16)).astype(np.uint64))
        # ... viewed little-endian as two 128-bit ints (seed, stream),
        # then PCG64's srandom seeding.
        halves = [(out[j] | (out[j + 1] << 32)).tolist() for j in (0, 2, 4, 6)]
        seeds = []
        for s_hi, s_lo, q_hi, q_lo in zip(*halves):
            inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _M128
            initstate = (s_hi << 64) | s_lo
            seeds.append((((inc + initstate) * _PCG_MULT + inc) & _M128, inc))
        return seeds

    def reseated(
        self, rng: np.random.Generator, start: int, stop: int
    ) -> Iterator[np.random.Generator]:
        """``rng`` (a PCG64 Generator) re-seated in place as
        ``derive_rng(seed, label, i)`` for each ``i`` in ``[start,
        stop)`` in turn, its states hashed :data:`_STATE_BLOCK` indices
        at a time."""
        inner = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": inner,
                 "has_uint32": 0, "uinteger": 0}
        bit_generator = rng.bit_generator
        for block_start in range(start, stop, _STATE_BLOCK):
            block_stop = min(block_start + _STATE_BLOCK, stop)
            w0, w1 = zip(*map(_fnv_words, range(block_start, block_stop)))
            for seeded, inc in self.seeds(w0, w1):
                inner["state"], inner["inc"] = seeded, inc
                bit_generator.state = state
                yield rng
