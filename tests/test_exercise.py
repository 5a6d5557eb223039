"""Tests for exercise functions (paper §2.1, Figures 3-4)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.exercise import (
    blank,
    composite,
    constant,
    expexp,
    exppar,
    ramp,
    sawtooth,
    sine,
    step,
)
from repro.core.resources import CONTENTION_LIMITS, Resource
from repro.errors import ValidationError


class TestStep:
    def test_figure4_step(self):
        fn = step(Resource.CPU, 2.0, 120.0, 40.0)
        assert fn.duration == 120.0
        assert fn.level_at(0.0) == 0.0
        assert fn.level_at(39.9) == 0.0
        assert fn.level_at(40.0) == 2.0
        assert fn.level_at(119.0) == 2.0
        assert fn.shape == "step"

    def test_step_validates_breakpoint(self):
        with pytest.raises(ValidationError):
            step(Resource.CPU, 1.0, 100.0, 100.0)
        with pytest.raises(ValidationError):
            step(Resource.CPU, 1.0, 100.0, -5.0)

    def test_step_at_time_zero(self):
        fn = step(Resource.CPU, 3.0, 10.0, 0.0)
        assert fn.level_at(0.0) == 3.0


class TestRamp:
    def test_figure4_ramp(self):
        fn = ramp(Resource.CPU, 2.0, 120.0)
        assert fn.duration == 120.0
        assert fn.level_at(0.0) == 0.0
        assert fn.max_level() == pytest.approx(2.0)
        # Monotone non-decreasing throughout.
        assert np.all(np.diff(fn.values) >= 0)

    def test_ramp_midpoint(self):
        fn = ramp(Resource.CPU, 4.0, 100.0, sample_rate=10.0)
        assert fn.level_at(50.0) == pytest.approx(2.0, abs=0.05)

    def test_single_sample_ramp(self):
        fn = ramp(Resource.CPU, 1.0, 1.0, sample_rate=1.0)
        assert len(fn.values) == 1
        assert fn.max_level() == 1.0


class TestOscillators:
    def test_sine_nonnegative_by_default(self):
        fn = sine(Resource.CPU, amplitude=1.5, period=30.0, t=120.0)
        assert fn.series.min() >= 0.0
        assert fn.max_level() <= 3.0 + 1e-9

    def test_sine_custom_offset(self):
        fn = sine(Resource.CPU, 1.0, 10.0, 40.0, offset=2.0)
        assert fn.series.mean() == pytest.approx(2.0, abs=0.2)

    def test_sine_validation(self):
        with pytest.raises(ValidationError):
            sine(Resource.CPU, -1.0, 10.0, 40.0)
        with pytest.raises(ValidationError):
            sine(Resource.CPU, 1.0, 0.0, 40.0)

    def test_sawtooth_period(self):
        fn = sawtooth(Resource.CPU, 2.0, 10.0, 30.0, sample_rate=10.0)
        assert fn.level_at(0.0) == 0.0
        assert fn.level_at(9.9) == pytest.approx(1.98, abs=0.05)
        assert fn.level_at(10.0) == pytest.approx(0.0, abs=0.05)

    def test_sawtooth_validation(self):
        with pytest.raises(ValidationError):
            sawtooth(Resource.CPU, 1.0, -3.0, 30.0)


class TestQueueing:
    def test_expexp_deterministic_with_seed(self):
        a = expexp(Resource.CPU, 0.1, 20.0, 300.0, seed=42)
        b = expexp(Resource.CPU, 0.1, 20.0, 300.0, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_expexp_occupancy_is_integerish_and_capped(self):
        fn = expexp(Resource.CPU, 0.5, 30.0, 300.0, seed=1)
        assert np.all(fn.values == np.round(fn.values))
        assert fn.max_level() <= CONTENTION_LIMITS[Resource.CPU]

    def test_expexp_busier_with_higher_load(self):
        light = expexp(Resource.CPU, 0.02, 5.0, 600.0, seed=3)
        heavy = expexp(Resource.CPU, 0.2, 20.0, 600.0, seed=3)
        assert heavy.series.mean() > light.series.mean()

    def test_exppar_deterministic_and_capped(self):
        fn = exppar(Resource.DISK, 0.1, 1.5, 10.0, 300.0, seed=7)
        assert fn.max_level() <= CONTENTION_LIMITS[Resource.DISK]
        assert fn.shape == "exppar"

    def test_queueing_validation(self):
        with pytest.raises(ValidationError):
            expexp(Resource.CPU, 0.0, 5.0, 60.0)
        with pytest.raises(ValidationError):
            exppar(Resource.CPU, 0.1, 0.0, 1.0, 60.0)


class TestBlankConstantComposite:
    def test_blank_is_blank(self):
        fn = blank(Resource.CPU, 120.0)
        assert fn.is_blank()
        assert fn.max_level() == 0.0

    def test_constant(self):
        fn = constant(Resource.MEMORY, 0.5, 60.0)
        assert fn.level_at(30.0) == 0.5
        assert not fn.is_blank()

    def test_composite_concatenates(self):
        a = constant(Resource.CPU, 1.0, 10.0)
        b = constant(Resource.CPU, 2.0, 10.0)
        fn = composite(a, b)
        assert fn.duration == 20.0
        assert fn.level_at(5.0) == 1.0
        assert fn.level_at(15.0) == 2.0

    def test_composite_rejects_mixed_resources(self):
        with pytest.raises(ValidationError):
            composite(
                constant(Resource.CPU, 1.0, 10.0),
                constant(Resource.DISK, 1.0, 10.0),
            )

    def test_composite_rejects_mixed_rates(self):
        with pytest.raises(ValidationError):
            composite(
                constant(Resource.CPU, 1.0, 10.0, sample_rate=1.0),
                constant(Resource.CPU, 1.0, 10.0, sample_rate=2.0),
            )

    def test_composite_needs_parts(self):
        with pytest.raises(ValidationError):
            composite()


class TestEnvelope:
    def test_levels_beyond_limit_rejected(self):
        with pytest.raises(ValidationError):
            constant(Resource.MEMORY, 1.5, 10.0)
        with pytest.raises(ValidationError):
            ramp(Resource.CPU, 100.0, 10.0)

    def test_negative_level_rejected(self):
        with pytest.raises(ValidationError):
            constant(Resource.CPU, -0.5, 10.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValidationError):
            ramp(Resource.CPU, 1.0, 0.0)

    def test_with_resource_retargets(self):
        fn = ramp(Resource.CPU, 1.0, 10.0)
        fn2 = fn.with_resource(Resource.DISK)
        assert fn2.resource is Resource.DISK
        assert np.array_equal(fn2.values, fn.values)

    def test_last_values_at_feedback(self):
        fn = ramp(Resource.CPU, 5.0, 100.0)
        last = fn.last_values(50.0)
        assert len(last) == 5
        assert np.all(np.diff(last) > 0)


@settings(max_examples=50)
@given(
    x=st.floats(min_value=0.01, max_value=10.0),
    t=st.floats(min_value=1.0, max_value=600.0),
    rate=st.sampled_from([1.0, 2.0, 4.0]),
)
def test_property_ramp_monotone_peak_at_end(x, t, rate):
    fn = ramp(Resource.CPU, x, t, sample_rate=rate)
    assert np.all(np.diff(fn.values) >= -1e-12)
    assert fn.values[-1] == pytest.approx(x)
    assert fn.values[0] <= x


@settings(max_examples=50)
@given(
    x=st.floats(min_value=0.01, max_value=10.0),
    t=st.floats(min_value=2.0, max_value=600.0),
    b_frac=st.floats(min_value=0.0, max_value=0.95),
)
# np.round and the builtin round disagree on this x (0.469160748328 and
# 0.469160748327), which a comparison of rounded values once tripped on.
@example(x=0.4691607483275, t=120.0, b_frac=0.25)
def test_property_step_two_valued(x, t, b_frac):
    b = b_frac * t
    fn = step(Resource.CPU, x, t, b)
    # step assigns exactly 0.0 or x: compare the samples themselves.
    assert set(fn.values.tolist()) <= {0.0, x}
    assert fn.values[-1] == pytest.approx(x)
