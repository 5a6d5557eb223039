"""Unit tests for the harvesting-scheduler policies."""

import pytest

from repro.core.resources import CONTENTION_LIMITS, Resource
from repro.errors import SchedulerError
from repro.paperdata import RAMP_PARAMS
from repro.scheduler import (
    SCHEDULER_POLICIES,
    AIMDPolicy,
    CDFPolicy,
    SchedulerDecision,
    StaticPolicy,
    build_policy,
    cell_cap,
)
from repro.scheduler.policy import (
    AIMD_BACKOFF,
    AIMD_RECOVERY_FRACTION,
    CDF_CLIMB_FRACTION,
    CDF_MIN_OBSERVATIONS,
    CDF_SAFETY,
    CDF_START_FRACTION,
    FLOOR_FRACTION,
    STATIC_FRACTION,
)


class TestRegistry:
    def test_all_three_policies_registered(self):
        assert set(SCHEDULER_POLICIES) == {"static", "aimd", "cdf"}

    def test_build_policy_dispatches(self):
        assert isinstance(build_policy("static"), StaticPolicy)
        assert isinstance(build_policy("aimd"), AIMDPolicy)
        assert isinstance(build_policy("cdf"), CDFPolicy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulerError, match="unknown scheduler policy"):
            build_policy("greedy")

    @pytest.mark.parametrize("budget", [0.0, 1.0, -0.1, 2.0])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(SchedulerError, match="budget"):
            build_policy("cdf", budget=budget)

    def test_budget_reaches_cdf_policy(self):
        assert build_policy("cdf", budget=0.1).budget == 0.1


class TestCellCap:
    def test_studied_cell_uses_ramp_maximum(self):
        task, resource = "word", Resource.CPU
        ramp_max = RAMP_PARAMS[(task, resource)][0]
        assert cell_cap(task, resource) == min(
            ramp_max, CONTENTION_LIMITS[resource]
        )

    def test_unstudied_cell_falls_back_to_contention_limit(self):
        assert cell_cap("no-such-task", Resource.NETWORK) == (
            CONTENTION_LIMITS[Resource.NETWORK]
        )


class TestStaticPolicy:
    def test_fixed_fraction_of_cap_always_admitted(self):
        policy = StaticPolicy()
        for _ in range(3):
            decision = policy.decide("word", Resource.CPU)
            assert decision == SchedulerDecision(
                True, STATIC_FRACTION * cell_cap("word", Resource.CPU)
            )

    def test_feedback_is_ignored(self):
        policy = StaticPolicy()
        before = policy.decide("quake", Resource.DISK).ceiling
        policy.on_discomfort("quake", Resource.DISK, before)
        policy.on_comfortable("quake", Resource.DISK, 600.0)
        assert policy.decide("quake", Resource.DISK).ceiling == before


class TestAIMDPolicy:
    def test_starts_at_cap_and_always_admits(self):
        policy = AIMDPolicy()
        decision = policy.decide("word", Resource.CPU)
        assert decision.admitted
        assert decision.ceiling == cell_cap("word", Resource.CPU)

    def test_discomfort_backs_off_and_comfort_recovers(self):
        policy = AIMDPolicy()
        cap = cell_cap("word", Resource.CPU)
        policy.on_discomfort("word", Resource.CPU, cap)
        halved = policy.decide("word", Resource.CPU).ceiling
        assert halved == pytest.approx(AIMD_BACKOFF * cap)
        policy.on_comfortable("word", Resource.CPU, 60.0)
        recovered = policy.decide("word", Resource.CPU).ceiling
        assert recovered == pytest.approx(halved + AIMD_RECOVERY_FRACTION * cap)

    def test_cells_are_independent(self):
        policy = AIMDPolicy()
        policy.on_discomfort("word", Resource.CPU, 1.0)
        assert policy.decide("word", Resource.DISK).ceiling == cell_cap(
            "word", Resource.DISK
        )


class TestCDFPolicy:
    CELL = ("word", Resource.CPU)

    def test_starts_at_start_fraction(self):
        policy = CDFPolicy()
        cap = cell_cap(*self.CELL)
        assert policy.decide(*self.CELL).ceiling == pytest.approx(
            CDF_START_FRACTION * cap
        )

    def test_climbs_while_comfortable_capped_at_cell_cap(self):
        policy = CDFPolicy()
        cap = cell_cap(*self.CELL)
        before = policy.decide(*self.CELL).ceiling
        policy.on_comfortable(*self.CELL, 60.0)
        after = policy.decide(*self.CELL).ceiling
        assert after == pytest.approx(before + CDF_CLIMB_FRACTION * cap)
        for _ in range(1000):
            policy.on_comfortable(*self.CELL, 60.0)
        assert policy.decide(*self.CELL).ceiling == cap

    def test_discomfort_strictly_decreases_ceiling(self):
        policy = CDFPolicy()
        cap = cell_cap(*self.CELL)
        floor = FLOOR_FRACTION * cap
        for _ in range(20):
            before = policy.decide(*self.CELL).ceiling
            policy.on_discomfort(*self.CELL, before)
            after = policy.decide(*self.CELL).ceiling
            if before > floor:
                assert after < before
            else:
                assert after == floor

    def test_backoff_tracks_measured_c_a(self):
        """After enough observations the ceiling re-seats below
        ``CDF_SAFETY * c_a`` of the policy's own bucket counts."""
        policy = CDFPolicy(budget=0.1)
        cap = cell_cap(*self.CELL)
        for level in (0.6 * cap, 0.5 * cap, 0.7 * cap, 0.4 * cap):
            policy.on_discomfort(*self.CELL, level)
        cell = self.CELL
        c_a = policy._c_a_for(cell)
        assert c_a is not None
        assert policy.decide(*cell).ceiling <= CDF_SAFETY * c_a

    def test_admission_denied_over_budget_then_amortizes(self):
        policy = CDFPolicy(budget=0.5)
        n = CDF_MIN_OBSERVATIONS
        # n decisions, n discomforts: rate 1.0 > budget 0.5.
        for _ in range(n):
            decision = policy.decide(*self.CELL)
            assert decision.admitted
            policy.on_discomfort(*self.CELL, decision.ceiling)
        # Denied epochs still count as decisions, so the realized rate
        # decays back to the budget and admission resumes: after the
        # n-th denial, n discomforts / 2n decisions == budget.
        for _ in range(n):
            assert not policy.decide(*self.CELL).admitted
        assert policy.decide(*self.CELL).admitted

    def test_deterministic_replay(self):
        """Identical event sequences yield identical decision streams."""
        def drive(policy):
            out = []
            for i in range(40):
                decision = policy.decide(*self.CELL)
                out.append((decision.admitted, decision.ceiling))
                if not decision.admitted:
                    continue
                if i % 5 == 0:
                    policy.on_discomfort(*self.CELL, decision.ceiling)
                else:
                    policy.on_comfortable(*self.CELL, 60.0)
            return out

        assert drive(CDFPolicy()) == drive(CDFPolicy())
