"""Tests for repro.util.rng."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util import rng as rng_mod
from repro.util.rng import DerivedStream, derive_rng, ensure_rng


class TestEnsureRng:
    def test_int_seed_deterministic(self):
        a = ensure_rng(42).integers(0, 1 << 30, 10)
        b = ensure_rng(42).integers(0, 1 << 30, 10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        a = ensure_rng(seq)
        assert isinstance(a, np.random.Generator)


class TestDeriveRng:
    def test_same_key_same_stream(self):
        a = derive_rng(1, "population").integers(0, 1000, 5)
        b = derive_rng(1, "population").integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_different_key_different_stream(self):
        a = derive_rng(1, "x").integers(0, 1 << 30, 8)
        b = derive_rng(1, "y").integers(0, 1 << 30, 8)
        assert not np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = derive_rng(1, "x").integers(0, 1 << 30, 8)
        b = derive_rng(2, "x").integers(0, 1 << 30, 8)
        assert not np.array_equal(a, b)

    def test_multi_part_keys(self):
        a = derive_rng(1, "user", 3).integers(0, 1 << 30, 4)
        b = derive_rng(1, "user", 4).integers(0, 1 << 30, 4)
        assert not np.array_equal(a, b)

    def test_order_independence(self):
        # Deriving "b" after "a" must equal deriving "b" alone.
        _ = derive_rng(9, "a").integers(0, 100, 3)
        b1 = derive_rng(9, "b").integers(0, 1 << 30, 6)
        b2 = derive_rng(9, "b").integers(0, 1 << 30, 6)
        assert np.array_equal(b1, b2)

    def test_rejects_generator_seed(self):
        with pytest.raises(TypeError):
            derive_rng(np.random.default_rng(0), "k")

    def test_none_entropy_allowed(self):
        rng = derive_rng(None, "k")
        assert isinstance(rng, np.random.Generator)

    @pytest.mark.parametrize("key, first", [
        (("fleet-profile", 7), 5358390384476942198),
        (("user-session", 0), 4364712871739965368),
        (("x", 1.5, "y"), 5238567319590316110),
    ])
    def test_streams_pinned(self, key, first):
        # Literal draws: any edit to the key hash or the seeding would
        # silently reseed every study, fleet and golden pin.
        assert int(derive_rng(2004, *key).integers(2**63)) == first


def _first_draws(rng):
    """The state, then draws that leave a buffered half word behind,
    so a re-seat that kept it would show in the next index's state."""
    state = rng.bit_generator.state
    words = rng.integers(2**32, size=3, dtype=np.uint32).tolist()
    return state, words, rng.random()


class TestDerivedStream:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**256),
        label=st.text(),
        start=st.integers(min_value=0, max_value=2**20),
        length=st.integers(min_value=0, max_value=13),
    )
    # The hash constant depends on the seed's count of 32-bit words:
    # 0, then each side of the 1-to-2 and the 4-to-5 word edges.
    @example(seed=0, label="fleet-tasks", start=0, length=5)
    @example(seed=2**32 - 1, label="fleet-profile", start=3, length=5)
    @example(seed=2**32, label="fleet-behavior", start=1023, length=5)
    @example(seed=2**128 - 1, label="user-session", start=0, length=5)
    @example(seed=2**128, label="user-behavior", start=7, length=5)
    def test_property_reseated_is_derive_rng(self, seed, label, start, length):
        """Every index of a range that crosses state blocks gets the
        state and draws of its own ``derive_rng`` stream, in one
        Generator re-seated in place, for any seed and label."""
        rng = np.random.default_rng(0)
        got = []
        with mock.patch.object(rng_mod, "_STATE_BLOCK", 4):
            stream = DerivedStream(seed, label)
            for reseated in stream.reseated(rng, start, start + length):
                assert reseated is rng
                got.append(_first_draws(reseated))
        assert got == [
            _first_draws(derive_rng(seed, label, i))
            for i in range(start, start + length)
        ]
