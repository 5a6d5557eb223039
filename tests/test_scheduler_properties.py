"""Hypothesis property tests: controller clamping, policy invariants,
fleet reproducibility.

These are the safety rails under the harvesting scheduler: whatever
sequence of feedback a controller or policy sees, its ceiling stays in
its envelope and a discomfort is never a no-op; the ``cdf`` policy's
``c_a`` is the dashboard's ``c_q`` for the same observations; whatever
(seed, shard layout) a fleet runs under, the scoreboard is a pure
function of the config.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.resources import Resource
from repro.core.session import DISCOMFORT_LEVEL_BUCKETS
from repro.errors import ThrottleError
from repro.paperdata import STUDY_TASKS
from repro.scheduler import CDFPolicy, FleetConfig, cell_cap, simulate_clients
from repro.scheduler.fleet import FLEET_RESOURCES, _merge_aggregates
from repro.scheduler.policy import FLOOR_FRACTION
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry, check_snapshot
from repro.telemetry.web import comfort_cells
from repro.throttle import FeedbackController, Throttle

CELL = ("powerpoint", Resource.CPU)

# One feedback step: a discomfort, or comfortable time (possibly an
# hours-long suspend gap — the clamping regression this suite pins).
feedback_steps = st.lists(
    st.one_of(
        st.none(),  # discomfort
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    ),
    max_size=60,
)


class TestFeedbackControllerProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        steps=feedback_steps,
        max_level=st.floats(min_value=0.5, max_value=16.0),
        floor_fraction=st.floats(min_value=0.0, max_value=1.0),
        backoff=st.floats(min_value=0.01, max_value=0.99),
        recovery=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_ceiling_always_within_envelope(
        self, steps, max_level, floor_fraction, backoff, recovery
    ):
        floor = floor_fraction * max_level
        controller = FeedbackController(
            Throttle(Resource.CPU),
            max_level=max_level,
            backoff=backoff,
            recovery_per_minute=recovery,
            floor=floor,
            telemetry=Telemetry.disabled(),
        )
        for step in steps:
            if step is None:
                controller.on_discomfort()
            else:
                controller.on_comfortable(step)
            assert floor <= controller.throttle.ceiling <= max_level

    @pytest.mark.parametrize("elapsed", [math.nan, math.inf, -1.0, -math.inf])
    def test_bad_elapsed_rejected(self, elapsed):
        controller = FeedbackController(
            Throttle(Resource.CPU),
            max_level=4.0,
            telemetry=Telemetry.disabled(),
        )
        with pytest.raises(ThrottleError):
            controller.on_comfortable(elapsed)


class TestCDFPolicyProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=feedback_steps,
        budget=st.floats(min_value=0.01, max_value=0.5),
    )
    def test_ceiling_always_within_cell_envelope(self, steps, budget):
        policy = CDFPolicy(budget=budget)
        cap = cell_cap(*CELL)
        floor = FLOOR_FRACTION * cap
        for step in steps:
            decision = policy.decide(*CELL)
            assert floor <= decision.ceiling <= cap
            if not decision.admitted:
                continue
            if step is None:
                policy.on_discomfort(*CELL, decision.ceiling)
            else:
                policy.on_comfortable(*CELL, min(step, 3600.0))
            assert floor <= policy.decide(*CELL).ceiling <= cap

    @settings(max_examples=40, deadline=None)
    @given(steps=feedback_steps)
    def test_discomfort_strictly_decreases_above_floor(self, steps):
        policy = CDFPolicy()
        cap = cell_cap(*CELL)
        floor = FLOOR_FRACTION * cap
        for step in steps:
            before = policy.decide(*CELL).ceiling
            if step is None:
                policy.on_discomfort(*CELL, before)
                after = policy.decide(*CELL).ceiling
                if before > floor:
                    assert after < before
                else:
                    assert after == floor
            else:
                policy.on_comfortable(*CELL, min(step, 3600.0))


ALL_CELLS = [
    (task, resource) for task in STUDY_TASKS for resource in FLEET_RESOURCES
]

# Discomfort levels: exactly on a bucket bound, under the first bound,
# over the last one (the overflow clamp), or anywhere in between.
discomfort_levels = st.one_of(
    st.sampled_from(DISCOMFORT_LEVEL_BUCKETS),
    st.floats(min_value=0.0, max_value=DISCOMFORT_LEVEL_BUCKETS[0]),
    st.floats(min_value=DISCOMFORT_LEVEL_BUCKETS[-1], max_value=64.0),
    st.floats(min_value=0.0, max_value=8.0),
)


class TestCDFPolicyMatchesDashboard:
    """The controller and the operator never disagree about ``c_a``."""

    @settings(max_examples=80, deadline=None)
    @given(
        budget=st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
        ),
        observations=st.lists(
            st.tuples(st.sampled_from(ALL_CELLS), discomfort_levels),
            max_size=40,
        ),
    )
    @example(
        budget=0.05,
        observations=[(ALL_CELLS[0], b) for b in DISCOMFORT_LEVEL_BUCKETS]
        + [(ALL_CELLS[1], 0.01), (ALL_CELLS[1], 0.0), (ALL_CELLS[2], 4.5),
           (ALL_CELLS[2], 9.0), (ALL_CELLS[2], 4.0)],
    )
    def test_c_a_equals_comfort_cells_c_q(self, budget, observations):
        policy = CDFPolicy(budget=budget)
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "uucs_discomfort_level",
            labelnames=("task", "resource"),
            buckets=DISCOMFORT_LEVEL_BUCKETS,
        )
        for (task, resource), level in observations:
            policy.on_discomfort(task, resource, level)
            histogram.observe(level, task=task, resource=resource.value)
            dashboard = {
                (row["task"], Resource.parse(row["resource"])): row["c_q"]
                for row in comfort_cells(
                    check_snapshot(registry.snapshot(), registry.shape),
                    quantile=budget,
                )
            }
            for cell in ALL_CELLS:
                assert policy._c_a_for(cell) == dashboard.get(cell)


class TestFleetReproducibilityProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        clients=st.integers(min_value=1, max_value=12),
        policy=st.sampled_from(["static", "aimd", "cdf"]),
    )
    def test_same_config_same_aggregates(self, seed, clients, policy):
        config = FleetConfig(policy=policy, clients=clients, epochs=4, seed=seed)
        first = simulate_clients(config, 0, clients)
        second = simulate_clients(config, 0, clients)
        assert first == second

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        clients=st.integers(min_value=2, max_value=12),
        data=st.data(),
    )
    def test_any_split_merges_to_the_whole(self, seed, clients, data):
        """Shard layout can never leak into the scoreboard."""
        split = data.draw(
            st.integers(min_value=1, max_value=clients - 1), label="split"
        )
        config = FleetConfig(policy="cdf", clients=clients, epochs=4,
                             seed=seed, budget=0.1)
        whole = simulate_clients(config, 0, clients)
        parts = _merge_aggregates(
            [
                simulate_clients(config, 0, split),
                simulate_clients(config, split, clients),
            ]
        )
        assert whole == parts
