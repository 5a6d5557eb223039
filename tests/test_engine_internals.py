"""Unit tests for the analytic engine's building blocks."""

import numpy as np
import pytest

from repro.core.exercise import constant, ramp
from repro.core.resources import Resource
from repro.core.testcase import Testcase
from repro.study.engine import _level_array, _threshold_fire_step


class TestLevelArray:
    def test_same_length_function(self):
        tc = Testcase.single("t", ramp(Resource.CPU, 2.0, 10.0, 1.0))
        arr = _level_array(tc, Resource.CPU, 10)
        assert np.array_equal(arr, tc.functions[Resource.CPU].values)

    def test_short_function_pads_like_levels_at(self):
        tc = Testcase(
            "t",
            {
                Resource.CPU: constant(Resource.CPU, 1.0, 5.0, 1.0),
                Resource.DISK: constant(Resource.DISK, 2.0, 10.0, 1.0),
            },
        )
        arr = _level_array(tc, Resource.CPU, 10)
        # Matches Testcase.levels_at at every step, including the boundary
        # step at exactly the short function's duration.
        for i in range(10):
            assert arr[i] == tc.levels_at(float(i))[Resource.CPU], i


class TestThresholdFireStep:
    def test_immediate_fire_with_zero_delay_equivalent(self):
        levels = np.array([0.0, 1.0, 2.0, 3.0])
        # delay shorter than one sample: fires at the crossing sample.
        assert _threshold_fire_step(levels, 1.5, 0.0, 1.0) == 2

    def test_delay_postpones(self):
        levels = np.array([0.0, 2.0, 2.0, 2.0, 2.0])
        assert _threshold_fire_step(levels, 1.5, 2.0, 1.0) == 3

    def test_dip_resets_the_clock(self):
        levels = np.array([2.0, 2.0, 0.0, 2.0, 2.0, 2.0])
        # Crossing at 0 is reset by the dip at 2; the run from 3 matures
        # at index 5 (2 seconds after crossing at 3).
        assert _threshold_fire_step(levels, 1.5, 2.0, 1.0) == 5

    def test_never_fires_below_threshold(self):
        levels = np.array([0.1, 0.2, 0.3])
        assert _threshold_fire_step(levels, 1.0, 0.0, 1.0) is None

    def test_never_fires_when_runs_too_short(self):
        levels = np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0])
        assert _threshold_fire_step(levels, 1.5, 1.0, 1.0) is None

    def test_exact_equality_counts_as_crossing(self):
        levels = np.array([0.0, 1.5])
        assert _threshold_fire_step(levels, 1.5, 0.0, 1.0) == 1

    def test_sub_second_rates(self):
        levels = np.full(20, 2.0)
        # rate 4 Hz (dt 0.25): 1.0 s delay elapses at index 4.
        assert _threshold_fire_step(levels, 1.0, 1.0, 0.25) == 4


class TestLevelArrayBoundaryBothEngines:
    """The "sample exactly at a short function's duration reads the
    final value" rule, pinned for every engine that consumes
    _level_array before anything relies on it."""

    def _short_testcase(self):
        # CPU function ends at t=5 inside a 10-second testcase: step 5
        # samples t == duration exactly, steps 6+ are past the end.
        return Testcase(
            "t",
            {
                Resource.CPU: constant(Resource.CPU, 1.0, 5.0, 1.0),
                Resource.DISK: constant(Resource.DISK, 2.0, 10.0, 1.0),
            },
        )

    def test_boundary_step_reads_final_value_then_zero(self):
        arr = _level_array(self._short_testcase(), Resource.CPU, 10)
        assert arr[4] == 1.0   # last in-range sample
        assert arr[5] == 1.0   # t == duration: still the final value
        assert np.all(arr[6:] == 0.0)  # strictly past the end

    def test_batch_engine_shares_the_same_level_arrays(self):
        from repro.machine import SimulatedMachine
        from repro.monitor.base import SimulatedMonitor
        from repro.study import batch as batch_mod
        from repro.study.engine import CellTraces
        from repro.apps import get_task
        from repro.study.testcases import ramp_testcase
        from repro.users.behavior import BehaviorParams
        from repro.users.tolerance import paper_calibrated_table

        # The batch cell plan must use the analytic engine's *own* level
        # arrays (CellTraces builds them with _level_array), not a
        # reimplementation that could drift on this boundary.
        tc = self._short_testcase()
        machine = SimulatedMachine()
        task = get_task("word")
        traces = CellTraces(
            tc, machine.interactivity_model(task),
            SimulatedMonitor(machine, task),
        )
        for resource in tc.functions:
            assert np.array_equal(
                traces.levels[resource],
                _level_array(tc, resource, traces.n_steps),
            )
        for resource in tc.functions:
            expected = [
                tc.levels_at(float(i))[resource]
                for i in range(traces.n_steps)
            ]
            assert traces.levels[resource].tolist() == expected
        # The batch engine refuses the short testcase (it loads two
        # resources), so its plan is checked on a Figure 8 cell.
        figure8 = ramp_testcase("word", Resource.CPU)
        traces = CellTraces(
            figure8, machine.interactivity_model(task),
            SimulatedMonitor(machine, task),
        )
        cell = batch_mod._CellPlan(
            "word", figure8, traces, paper_calibrated_table(),
            BehaviorParams(),
        )
        assert cell.level_arrays is traces.levels

    def test_boundary_affects_fire_scans_identically(self):
        # A threshold met only by the boundary sample: the scalar must
        # fire at exactly step m.
        tc = self._short_testcase()
        arr = _level_array(tc, Resource.CPU, 10)
        assert _threshold_fire_step(arr, 1.0, 4.5, 1.0) == 5
