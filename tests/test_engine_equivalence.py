"""The fast engines' contract: bit-for-bit equivalence with the loop.

The vectorized engines (repro.study.engine's analytic closed form and
repro.study.batch's cell-batched fleet path) may only ever be
optimizations.  These tests drive the engines with identically-seeded
users over the full study and over adversarial generated shapes, and
require *identical* run records — outcomes, offsets, levels, traces —
down to the serialized bytes the result store would hold.
"""

import dataclasses
import math
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import get_task
from repro.apps.registry import TASK_ORDER
from repro.core.exercise import ExerciseFunction, blank, ramp, sine, step
from repro.core.feedback import DiscomfortEvent, RunOutcome
from repro.core.resources import Resource
from repro.core.run import RunContext, TestcaseRun, TraceView
from repro.core.session import run_simulated_session
from repro.core.testcase import Testcase
from repro.machine import SimulatedMachine
from repro.monitor.base import SimulatedMonitor
from repro.study import (
    ControlledStudyConfig,
    run_controlled_study,
    run_user_range,
    study_fixtures,
)
from repro.study import batch as batch_mod
from repro.study.engine import (
    CellTraces,
    _threshold_fire_step,
    run_analytic_session,
)
from repro.study.testcases import STUDY_SAMPLE_RATE, task_testcases
from repro.users.behavior import BehaviorParams, SimulatedUser
from repro.users.population import sample_profile
from repro.users.tolerance import (
    ToleranceSpec,
    ToleranceTable,
    paper_calibrated_table,
)
from repro.util.rng import DerivedStream, derive_rng
from repro.util.timeseries import SampledSeries


class TestFullStudyEquivalence:
    def test_identical_runs_across_engines(self):
        fast = run_controlled_study(
            ControlledStudyConfig(n_users=8, seed=321, engine="analytic")
        )
        slow = run_controlled_study(
            ControlledStudyConfig(n_users=8, seed=321, engine="loop")
        )
        assert len(fast.runs) == len(slow.runs)
        for a, b in zip(fast.runs, slow.runs):
            assert a == b, (a.run_id, a.outcome, b.outcome)

    def test_default_engine_is_analytic(self):
        assert ControlledStudyConfig().engine == "analytic"

    def test_unknown_engine_rejected(self):
        from repro.errors import StudyError

        with pytest.raises(StudyError):
            ControlledStudyConfig(engine="quantum")


def _user(threshold_mu, noise_prob, delay, seed, sigma=0.3, ramp_bonus=0.1):
    table = ToleranceTable(
        {
            ("word", Resource.CPU): ToleranceSpec(
                "word", Resource.CPU, p_react=0.9, mu=threshold_mu,
                sigma=sigma, ramp_bonus=ramp_bonus,
            )
        }
    )
    profile = sample_profile("eq-user", seed=seed)
    profile = type(profile)(
        user_id=profile.user_id,
        ratings=profile.ratings,
        tolerance_factor=profile.tolerance_factor,
        reaction_delay_mean=delay,
    )
    params = BehaviorParams(
        noise_prob_blank={"word": noise_prob}, noise_inrun_factor=0.5
    )
    return SimulatedUser(profile, table, params, seed=seed)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=8.0), min_size=1, max_size=100
    ),
    rate=st.sampled_from([0.5, 1.0, 3.0, 4.0]),
    mu=st.floats(min_value=-1.5, max_value=1.5),
    noise=st.floats(min_value=0.0, max_value=1.0),
    delay=st.floats(min_value=0.1, max_value=10.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_engines_identical(values, rate, mu, noise, delay, seed):
    """Random level series (dips included), thresholds, delays, and noise:
    both engines must emit the same run, trace for trace."""
    fn = ExerciseFunction(
        Resource.CPU, SampledSeries(rate, np.array(values)), "custom", {}
    )
    testcase = Testcase.single("eq", fn)
    machine = SimulatedMachine()
    task = get_task("word")
    model = machine.interactivity_model(task)
    monitor = SimulatedMonitor(machine, task)
    context = RunContext(user_id="eq-user", task="word")

    loop_result = run_simulated_session(
        testcase, _user(mu, noise, delay, seed), context, model,
        run_id="fixed", monitor=monitor,
    )
    analytic_result = run_analytic_session(
        testcase, _user(mu, noise, delay, seed), context, model,
        run_id="fixed", monitor=monitor,
    )
    a, b = loop_result.run, analytic_result.run
    assert a.outcome == b.outcome
    assert a.end_offset == b.end_offset
    if a.feedback is not None:
        assert a.feedback.source == b.feedback.source
        assert a.feedback.offset == b.feedback.offset
    assert a == b
    # The loop's trace is a plain dict and the analytic engine's a view
    # of its cell's table: they render through different code.
    assert a.to_json() == b.to_json()
    assert np.array_equal(
        loop_result.slowdown_trace, analytic_result.slowdown_trace
    )
    assert np.array_equal(
        loop_result.jitter_trace, analytic_result.jitter_trace
    )


@settings(max_examples=40, deadline=None)
@given(
    levels=st.dictionaries(
        st.sampled_from([Resource.CPU, Resource.MEMORY, Resource.DISK]),
        st.floats(min_value=0.0, max_value=1.0),
        min_size=1,
        max_size=3,
    ),
    task_name=st.sampled_from(["word", "powerpoint", "ie", "quake"]),
)
def test_property_batch_matches_scalar_interactivity(levels, task_name):
    """The vectorized machine paths are element-identical to scalars."""
    machine = SimulatedMachine()
    task = get_task(task_name)
    model = machine.interactivity_model(task)
    n = 7
    arrays = {r: np.full(n, v) for r, v in levels.items()}
    slow, jit = model.interactivity_batch(arrays, n)
    scalar = model.interactivity(levels)
    assert np.all(slow == scalar.slowdown)
    assert np.all(jit == scalar.jitter)
    cpu, mem, disk = machine.sample_load_batch(task, arrays, n)
    load = machine.sample_load(task, levels)
    assert np.all(cpu == load.cpu_utilization)
    assert np.all(mem == load.memory_used)
    assert np.all(disk == load.disk_utilization)


def _serialized(result) -> list[bytes]:
    return [(run.to_json() + "\n").encode() for run in result.runs]


class TestBatchStudyEquivalence:
    """The batch engine's study-level byte contract vs the analytic."""

    def test_full_study_byte_equal(self):
        batch = run_controlled_study(
            ControlledStudyConfig(n_users=16, seed=77, engine="batch")
        )
        scalar = run_controlled_study(
            ControlledStudyConfig(n_users=16, seed=77, engine="analytic")
        )
        assert _serialized(batch) == _serialized(scalar)

    def test_full_task_order_64_users(self):
        cfg = dict(n_users=64, seed=4242, tasks=TASK_ORDER)
        batch = run_controlled_study(
            ControlledStudyConfig(engine="batch", **cfg)
        )
        scalar = run_controlled_study(
            ControlledStudyConfig(engine="analytic", **cfg)
        )
        assert _serialized(batch) == _serialized(scalar)

    def test_profiles_identical(self):
        batch = run_controlled_study(
            ControlledStudyConfig(n_users=5, seed=9, engine="batch")
        )
        scalar = run_controlled_study(
            ControlledStudyConfig(n_users=5, seed=9, engine="analytic")
        )
        assert batch.profiles == scalar.profiles


@settings(max_examples=15, deadline=None)
@given(
    n_users=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    tasks=st.sampled_from(
        [("word",), ("quake",), ("ie", "powerpoint"), TASK_ORDER]
    ),
)
def test_property_batch_study_byte_equal(n_users, seed, tasks):
    """Any (population size, seed, task mix): the batch engine's records
    serialize byte-for-byte as the scalar analytic engine's."""
    batch = run_controlled_study(
        ControlledStudyConfig(
            n_users=n_users, seed=seed, tasks=tasks, engine="batch"
        )
    )
    scalar = run_controlled_study(
        ControlledStudyConfig(
            n_users=n_users, seed=seed, tasks=tasks, engine="analytic"
        )
    )
    assert _serialized(batch) == _serialized(scalar)


def _lines(runs) -> list[bytes]:
    return [(run.to_json() + "\n").encode() for run in runs]


class TestBatchBlocks:
    """Ranges that cross user blocks, session chunks and DerivedStream
    state blocks, and start mid-fleet, against the analytic engine
    (the real sizes, 32,768, 1,024 and 1,024, are patched small)."""

    CONFIG = ControlledStudyConfig(n_users=23, seed=515, engine="batch")
    FIXTURES = study_fixtures(CONFIG)
    RANGES = ((0, 23), (3, 20), (11, 23), (22, 23), (5, 6))

    @pytest.mark.parametrize("user_block, chunk, state_block, words", [
        (2, 1, 3, 8),
        (3, 2, 1024, 8),
        (7, 5, 4, 8),
        (5, 3, 2, 5),
        (4, 4, 5, 1),
        (32768, 2, 1024, 2),
    ])
    def test_ranges_byte_equal_to_analytic(
        self, user_block, chunk, state_block, words
    ):
        from repro.util import rng as rng_mod

        analytic = dataclasses.replace(self.CONFIG, engine="analytic")
        for lo, hi in self.RANGES:
            with mock.patch.object(batch_mod, "_USER_BLOCK", user_block), \
                    mock.patch.object(batch_mod, "_SESSION_CHUNK", chunk), \
                    mock.patch.object(rng_mod, "_STATE_BLOCK", state_block), \
                    mock.patch.object(batch_mod, "_WORDS_PER_RUN", words):
                got = run_user_range(self.CONFIG, lo, hi, self.FIXTURES)
            want = run_user_range(analytic, lo, hi, self.FIXTURES)
            assert _lines(got) == _lines(want), (lo, hi)

    def test_testcases_of_other_durations(self):
        # Figure 8's testcases all last two minutes; these do not, so a
        # run's start time depends on which cells its user ran before.
        config = ControlledStudyConfig(
            n_users=9, seed=41, tasks=("word", "quake"), engine="batch"
        )
        testcases = {
            "word": [
                Testcase.single("r60", ramp(Resource.CPU, 1.5, 60.0, 4.0)),
                Testcase.single(
                    "s90", step(Resource.DISK, 2.0, 90.0, 30.0, 4.0)
                ),
                Testcase.single("b30", blank(Resource.CPU, 30.0, 4.0)),
            ],
            "quake": [
                Testcase.single("r45", ramp(Resource.MEMORY, 0.8, 45.0, 2.0)),
                Testcase.single("r120", ramp(Resource.CPU, 3.0, 120.0, 4.0)),
            ],
        }
        fixtures = dataclasses.replace(
            study_fixtures(config), testcases_by_task=testcases
        )
        analytic = dataclasses.replace(config, engine="analytic")
        for lo, hi in ((0, 9), (2, 7)):
            with mock.patch.object(batch_mod, "_USER_BLOCK", 3), \
                    mock.patch.object(batch_mod, "_SESSION_CHUNK", 2):
                got = run_user_range(config, lo, hi, fixtures)
            want = run_user_range(analytic, lo, hi, fixtures)
            assert _lines(got) == _lines(want), (lo, hi)


def _constructor_template(cell, testcase, step, source) -> dict:
    """A discomfort template through the validating constructor,
    ``Testcase.levels_at`` and ``Testcase.last_values``: the path every
    template took before later steps were stamped."""
    offset = min(step * cell.dt, cell.duration)
    levels = testcase.levels_at(offset)
    run = TestcaseRun(
        run_id="template",
        testcase_id=testcase.testcase_id,
        context=RunContext(user_id="template"),
        outcome=RunOutcome.DISCOMFORT,
        end_offset=offset,
        testcase_duration=testcase.duration,
        shapes={r: fn.shape for r, fn in testcase.functions.items()},
        levels_at_end=levels,
        last_values={
            r: tuple(np.asarray(v).tolist())
            for r, v in testcase.last_values(offset).items()
        },
        feedback=DiscomfortEvent(offset=offset, levels=levels, source=source),
        load_trace=TraceView(cell.trace_table, step + 1),
        load_trace_rate=testcase.sample_rate,
    )
    template = dict(run.__dict__)
    del template["run_id"], template["context"]
    return template


class TestStampedTemplates:
    """Discomfort templates stamped from a cell's first one equal the
    constructor's, field by field and key order included."""

    @pytest.mark.parametrize("task", TASK_ORDER)
    def test_every_step_and_source_matches_the_constructor(self, task):
        table, behavior = paper_calibrated_table(), BehaviorParams()
        for testcase in task_testcases(task, STUDY_SAMPLE_RATE):
            cell = batch_mod._CellPlan(
                task, testcase, CellTraces(testcase), table, behavior
            )
            for step in range(cell.n_steps):
                # Either source may come first at a step.
                sources = ("simulated", "noise")
                for source in sources if step % 2 else sources[::-1]:
                    got = cell._step_template(
                        step * 2 + (source == "noise")
                    )
                    want = _constructor_template(cell, testcase, step, source)
                    assert list(got) == list(want)
                    for name, value in want.items():
                        assert got[name] == value, (step, source, name)
                    for name in ("shapes", "levels_at_end", "last_values"):
                        assert list(got[name].items()) == list(
                            want[name].items()
                        )
                    assert all(
                        type(x) is float
                        for values in got["last_values"].values()
                        for x in values
                    )
                    event = got["feedback"]
                    assert list(event.levels.items()) == list(
                        want["feedback"].levels.items()
                    )
                    assert event.levels is got["levels_at_end"]
                    trace = got["load_trace"]
                    assert (trace.table, trace.steps) == (
                        cell.trace_table, step + 1
                    )

    def test_records_keep_key_sharing_dicts(self):
        # Every record's __dict__ is as small as a constructor-built
        # one's: the templates it is filled from are unclean copies, so
        # dict.update fills the class's key-sharing table instead of
        # cloning a combined one.  Seed 2004's 300 users include runs
        # whose step fired from both sources.
        result = run_controlled_study(
            ControlledStudyConfig(n_users=300, seed=2004, engine="batch")
        )
        sources = {run.feedback.source for run in result.runs
                   if run.feedback is not None}
        assert sources == {"simulated", "noise"}
        for run in result.runs:
            assert sys.getsizeof(run.__dict__) == sys.getsizeof(
                dataclasses.replace(run).__dict__
            )


class TestBatchCellPlans:
    """The batch engine serves only the cells a controlled study makes;
    the per-session engines run any testcase."""

    @pytest.mark.parametrize("testcase", [
        Testcase("two-loads", {
            Resource.CPU: ramp(Resource.CPU, 2.0, 120.0, 4.0),
            Resource.DISK: step(Resource.DISK, 2.0, 120.0, 40.0, 4.0),
        }),
        Testcase.single("dips", sine(Resource.CPU, 1.0, 30.0, 120.0,
                                     sample_rate=4.0)),
    ], ids=["two-loads", "dips"])
    def test_batch_refuses_other_cells(self, testcase):
        from repro.errors import StudyError

        config = ControlledStudyConfig(
            n_users=2, seed=3, tasks=("word",), engine="batch"
        )
        fixtures = dataclasses.replace(
            study_fixtures(config), testcases_by_task={"word": [testcase]}
        )
        with pytest.raises(StudyError, match="batch engine"):
            run_user_range(config, 0, 2, fixtures)
        analytic = dataclasses.replace(config, engine="analytic")
        assert len(run_user_range(analytic, 0, 2, fixtures)) == 2


@settings(max_examples=20, deadline=None)
@given(rate=st.floats(min_value=0.1, max_value=20.0))
def test_property_study_cells_fit_the_batch_plan(rate):
    """Every Figure 8 testcase, for every task and sample rate, passes
    the batch plan's checks; only the blanks draw no threshold."""
    table, behavior = paper_calibrated_table(), BehaviorParams()
    for task in TASK_ORDER:
        for testcase in task_testcases(task, rate):
            cell = batch_mod._CellPlan(
                task, testcase, CellTraces(testcase), table, behavior
            )
            if testcase.is_blank():
                assert cell.spec is None
            else:
                assert cell.spec == table.spec(task, cell.resource)
                assert cell.ramp == (
                    testcase.shape_of(cell.resource) == "ramp"
                )


def _scalar_fire(levels, threshold, delay, dt):
    step = _threshold_fire_step(levels, threshold, delay, dt)
    return -1 if step is None else step


class TestFireScanEdgeCases:
    """The vectorized fire scans vs the scalar, on adversarial inputs."""

    def test_threshold_exactly_at_level_sample(self):
        # >= must count equality as a crossing.
        levels = np.array([0.0, 1.0, 1.5, 2.0])
        for th in (1.0, 1.5, 2.0):
            expected = _scalar_fire(levels, th, 0.0, 1.0)
            mono = batch_mod._fire_steps_monotone(
                levels, np.array([th]), np.array([0.0]), 1.0
            )
            assert mono[0] == expected, th

    def test_noise_at_t_zero_fires_at_step_zero(self):
        steps = batch_mod._noise_steps(np.array([0.0]), 0.25, 480)
        assert steps[0] == 0

    def test_noise_nan_means_no_event(self):
        steps = batch_mod._noise_steps(np.array([math.nan]), 0.25, 480)
        assert steps[0] == -1

    def test_noise_beyond_duration_never_fires(self):
        # t >= noise_time is first met at step n_steps => out of range.
        steps = batch_mod._noise_steps(np.array([119.9]), 0.25, 480)
        assert steps[0] == 480 - 1 if 479 * 0.25 >= 119.9 else -1
        steps = batch_mod._noise_steps(np.array([130.0]), 0.25, 480)
        assert steps[0] == -1

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=4.0), min_size=1,
            max_size=60,
        ),
        threshold=st.floats(min_value=0.0, max_value=4.5),
        delay=st.floats(min_value=0.0, max_value=20.0),
        rate=st.sampled_from([0.5, 1.0, 4.0]),
    )
    def test_property_monotone_scan_matches_generic(
        self, values, threshold, delay, rate
    ):
        """On sorted (monotone) series the closed form and the scalar
        scan agree everywhere — the batch engine's cells never dip."""
        levels = np.sort(np.asarray(values))
        mono = batch_mod._fire_steps_monotone(
            levels, np.array([threshold]), np.array([delay]), 1.0 / rate
        )
        assert mono[0] == _scalar_fire(levels, threshold, delay, 1.0 / rate)


def _session_draws(
    rng, swaps_by_task, words_per_run=batch_mod._WORDS_PER_RUN
) -> list[tuple[list[int], str]]:
    """A user's ``(testcase order, run-id hex)`` per task, drawn from
    the ``user-session`` stream exactly as the scalar engine draws them:
    the oracle for the batch engine's lockstep replay.

    Per task the scalar engine calls ``rng.permutation(n)`` and then
    draws ``n`` 16-byte run ids.  Both consume the stream one 32-bit
    word at a time: the permutation's swaps by rejection sampling, the
    run ids four bytes to a word, low byte first.  So one
    ``integers(0, 2**32, dtype=uint32)`` draw yields the same words,
    and replaying the swaps and cutting the ids from the words gives
    the same orders and ids.  Running short just draws more and
    replays.
    """
    budget = words_per_run * sum(n for n, _ in swaps_by_task)
    words = rng.integers(0, 1 << 32, size=budget, dtype=np.uint32)
    while True:
        taken = words.tolist()
        raw = words.astype("<u4", copy=False).tobytes()
        out = []
        pos = 0
        try:
            for n, swaps in swaps_by_task:
                order = list(range(n))
                for i, mask in swaps:
                    j = taken[pos] & mask
                    pos += 1
                    while j > i:
                        j = taken[pos] & mask
                        pos += 1
                    order[i], order[j] = order[j], order[i]
                end = pos + 4 * n
                if end > len(taken):
                    raise IndexError
                out.append((order, raw[4 * pos : 4 * end].hex()))
                pos = end
            return out
        except IndexError:
            words = np.concatenate([
                words,
                rng.integers(0, 1 << 32, size=budget, dtype=np.uint32),
            ])


class TestRngIdentities:
    """Every RNG shortcut the batch draw phase takes, pinned against the
    exact scalar call it replaces (bits *and* stream state)."""

    @settings(max_examples=25, deadline=None)
    @given(
        entropy=st.integers(min_value=0, max_value=2**128 - 1),
        index=st.integers(min_value=0, max_value=2**20),
    )
    def test_property_fast_derive_matches_derive_rng(self, entropy, index):
        for label in ("user-session", "user-behavior"):
            stream = DerivedStream(entropy, label)
            (fast,) = stream.reseated(np.random.default_rng(0), index, index + 1)
            ref = derive_rng(entropy, label, index)
            assert fast.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(fast.random(3), ref.random(3))

    @settings(max_examples=10, deadline=None)
    @given(
        entropy=st.integers(min_value=0, max_value=2**128 - 1),
        start=st.integers(min_value=0, max_value=2**20),
    )
    def test_property_block_seeds_match_derive_rng(self, entropy, start):
        indices = range(start, start + 17)
        stream = DerivedStream(entropy, "user-behavior")
        reseated = stream.reseated(np.random.default_rng(0), start, start + 17)
        for index, fast in zip(indices, reseated, strict=True):
            ref = derive_rng(entropy, "user-behavior", index)
            assert fast.bit_generator.state == ref.bit_generator.state

    def test_flat_run_id_block_matches_sequential_draws(self):
        # One integers(size=n*16) call == n sequential 16-byte draws ==
        # one integers(size=(n, 16)) call, bits and stream state.
        for seed in (0, 7, 2004):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            c = np.random.default_rng(seed)
            flat = a.integers(0, 256, size=8 * 16, dtype=np.uint8)
            grid = b.integers(0, 256, size=(8, 16), dtype=np.uint8)
            seq = np.concatenate([
                c.integers(0, 256, size=16, dtype=np.uint8)
                for _ in range(8)
            ])
            assert flat.tobytes() == grid.tobytes() == seq.tobytes()
            assert (
                a.bit_generator.state
                == b.bit_generator.state
                == c.bit_generator.state
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sizes=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=5
        ),
        odd_start=st.booleans(),
        words_per_run=st.sampled_from([1, 8]),
    )
    def test_property_session_draws_match_scalar_draws(
        self, seed, sizes, odd_start, words_per_run
    ):
        # One bulk word draw, replayed, == per task a permutation and n
        # 16-byte run ids, whatever the stream's half-used-word state
        # and however often the word budget runs short.
        fast = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        if odd_start:
            fast.integers(0, 2, dtype=np.uint32)
            ref.integers(0, 2, dtype=np.uint32)
        got = _session_draws(
            fast, [batch_mod._shuffle_swaps(n) for n in sizes], words_per_run
        )
        want = [
            (
                ref.permutation(n).tolist(),
                "".join(
                    TestcaseRun.new_run_id(ref) for _ in range(n)
                ),
            )
            for n in sizes
        ]
        assert got == want

    @settings(max_examples=25, deadline=None)
    @given(
        entropy=st.integers(min_value=0, max_value=2**128 - 1),
        index=st.integers(min_value=0, max_value=2**20),
        pairs=st.integers(min_value=1, max_value=300),
    )
    def test_property_raw_words_are_integers_words_on_a_fresh_seat(
        self, entropy, index, pairs
    ):
        # _session_chunk's draw: random_raw viewed as uint32 pairs is
        # integers' words on a freshly seated PCG64 ...
        stream = DerivedStream(entropy, "user-session")
        (fast,) = stream.reseated(
            np.random.default_rng(0), index, index + 1
        )
        ref = derive_rng(entropy, "user-session", index)
        assert np.array_equal(
            fast.bit_generator.random_raw(pairs).view(np.uint32),
            ref.integers(0, 2**32, size=2 * pairs, dtype=np.uint32),
        )
        # ... but not after a half-used word, which integers hands out
        # first and random_raw skips (so _session_draws keeps integers).
        fast = derive_rng(entropy, "user-session", index)
        ref = derive_rng(entropy, "user-session", index)
        fast.integers(0, 2, dtype=np.uint32)
        ref.integers(0, 2, dtype=np.uint32)
        assert not np.array_equal(
            fast.bit_generator.random_raw(pairs).view(np.uint32),
            ref.integers(0, 2**32, size=2 * pairs, dtype=np.uint32),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        first_user=st.integers(min_value=0, max_value=2**20),
        users=st.integers(min_value=1, max_value=40),
        sizes=st.lists(
            st.integers(min_value=0, max_value=12), min_size=1, max_size=5
        ),
        words_per_run=st.sampled_from([1, 2, 5, 8]),
    )
    def test_property_session_chunk_matches_session_draws(
        self, seed, first_user, users, sizes, words_per_run
    ):
        """The lockstep replay over fresh seats gives every user the
        orders and run-id hex of ``_session_draws``, whether every user
        (1 or 2 words per run), some (5) or none (8) run short and are
        replayed with a doubled budget; at 1 and 2 a user may be
        replayed more than once."""
        swaps = [batch_mod._shuffle_swaps(n) for n in sizes]
        seats = DerivedStream(seed, "user-session").reseated(
            np.random.default_rng(0), first_user, first_user + users
        )
        orders, ids = batch_mod._session_chunk(
            seats, swaps, seed, np.arange(first_user, first_user + users),
            words_per_run,
        )
        assert orders.shape == (users, sum(sizes))
        assert ids.shape == (users, sum(sizes), 4)
        firsts = np.cumsum([0, *sizes[:-1]]).tolist()
        for k in range(users):
            want = _session_draws(
                derive_rng(seed, "user-session", first_user + k), swaps
            )
            got = [
                (
                    (orders[k, f : f + n] - f).tolist(),
                    ids[k, f : f + n].tobytes().hex(),
                )
                for f, n in zip(firsts, sizes)
            ]
            assert got == want

    def test_session_chunk_redoes_only_the_users_that_ran_short(self):
        # At 5 words per run some users of the study's four 8-testcase
        # tasks run short and some do not; each short one is replayed
        # on its own fresh seat, and every user still gets its draws.
        swaps = [batch_mod._shuffle_swaps(8)] * 4
        seats = DerivedStream(7, "user-session").reseated(
            np.random.default_rng(0), 100, 164
        )
        with mock.patch.object(batch_mod, "derive_rng",
                               wraps=batch_mod.derive_rng) as seat:
            orders, ids = batch_mod._session_chunk(
                seats, swaps, 7, np.arange(100, 164), 5
            )
        assert 0 < seat.call_count < 64
        for call in seat.call_args_list:
            (_, label, user), _ = call
            assert label == "user-session" and type(user) is int
        for k in range(64):
            want = _session_draws(
                derive_rng(7, "user-session", 100 + k), swaps
            )
            assert [
                ((orders[k, f : f + 8] - f).tolist(),
                 ids[k, f : f + 8].tobytes().hex())
                for f in (0, 8, 16, 24)
            ] == want

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bound=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_property_uniform_decomposition(self, seed, bound):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        assert a.uniform(0.0, bound) == bound * b.random()
        assert a.uniform(1.5, 5.0) == 1.5 + 3.5 * b.random()
        assert a.bit_generator.state == b.bit_generator.state

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        loc=st.floats(min_value=-10.0, max_value=10.0),
        scale=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_property_normal_decomposition(self, seed, loc, scale):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        assert a.normal(loc, scale) == loc + scale * b.standard_normal()
        assert a.bit_generator.state == b.bit_generator.state

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        x=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_property_array_exp_equals_scalar_exp(self, seed, x):
        # _decide vectorizes the scalar path's np.exp over the delay
        # column; numpy routes the scalar through the same ufunc kernel.
        assert np.exp(np.array([x]))[0] == np.exp(x)

    @settings(max_examples=40, deadline=None)
    @given(
        xs=st.lists(
            st.floats(min_value=-50.0, max_value=50.0),
            min_size=1,
            max_size=200,
        )
    )
    def test_property_array_exp_elementwise(self, xs):
        # Same identity at realistic column widths: large arrays may take
        # a SIMD path inside the ufunc, which must still agree with the
        # scalar call to the last ulp (the z-threshold and delay columns
        # both lean on this).
        out = np.exp(np.asarray(xs)).tolist()
        for x, got in zip(xs, out):
            assert got == np.exp(x)


def _profiles(prefix, n, seed):
    return [sample_profile(f"{prefix}{i}", seed=seed + i) for i in range(n)]


def _cell_fields(spec, ramp, th_col=None):
    """The fields of a Word/CPU batch ``_CellPlan`` that threshold
    finalization reads."""
    return SimpleNamespace(
        spec=spec, task_name="word", resource=Resource.CPU, ramp=ramp,
        th_col=[] if th_col is None else th_col,
    )


class TestThresholdFinalization:
    """The deferred threshold math (_BlockSkill + _finalize_thresholds)
    vs the scalar sampling path, element for element on raw draws."""

    @settings(max_examples=30, deadline=None)
    @given(
        task=st.sampled_from(["word", "powerpoint", "ie", "quake"]),
        scale=st.one_of(
            st.floats(min_value=0.0, max_value=100.0), st.just(math.inf)
        ),
        n=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_block_skill_matches_simulated_user(
        self, task, scale, n, seed
    ):
        profiles = _profiles("sk", n, seed)
        params = BehaviorParams()
        table = ToleranceTable(
            {
                (task, Resource.CPU): ToleranceSpec(
                    task, Resource.CPU, p_react=0.5, mu=0.0, sigma=0.3
                )
            }
        )
        skill = batch_mod._BlockSkill(profiles, (task,), params)
        got = skill.shift(task, Resource.CPU, scale)
        for profile, value in zip(profiles, got.tolist()):
            user = SimulatedUser(profile, table, params, seed=0)
            assert value == user._skill_shift(task, scale)
        # The column is computed once per (task, resource) and reused.
        assert skill.shift(task, Resource.CPU, scale) is got

    @settings(max_examples=30, deadline=None)
    @given(
        p_react=st.sampled_from([0.0, 0.2, 0.9, 1.0]),
        mu=st.floats(min_value=-1.5, max_value=1.5),
        sigma=st.floats(min_value=0.0, max_value=1.2),
        ramp_bonus=st.floats(min_value=0.0, max_value=0.4),
        range_max=st.one_of(
            st.none(), st.floats(min_value=0.5, max_value=8.0)
        ),
        shape=st.sampled_from(["ramp", "step"]),
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @example(
        p_react=0.9, mu=0.0, sigma=0.0, ramp_bonus=0.3, range_max=0.5,
        shape="step", n=12, seed=7,
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_property_finalize_matches_scalar_sampling(
        self, p_react, mu, sigma, ramp_bonus, range_max, shape, n, seed
    ):
        """Scalar reference: ``ToleranceSpec.sample_threshold`` + the
        post-processing of ``SimulatedUser.threshold_for``.  The raw-draw
        extraction below is the batch draw loop's, and must consume the
        exact same RNG stream (state asserted per user).  The example
        puts all the mass above ``range_max`` with sigma 0, where
        ``sigma * ndtri(0.0)`` would be NaN and warn."""
        spec = ToleranceSpec(
            "word", Resource.CPU, p_react=p_react, mu=mu, sigma=sigma,
            ramp_bonus=ramp_bonus, range_max=range_max,
        )
        profiles = _profiles("ft", n, seed)
        params = BehaviorParams()
        table = ToleranceTable({("word", Resource.CPU): spec})
        cell = _cell_fields(spec, ramp=shape == "ramp")
        col, expected = cell.th_col, []
        for i, profile in enumerate(profiles):
            r_scalar = np.random.default_rng(seed * 31 + i)
            r_raw = np.random.default_rng(seed * 31 + i)
            base = spec.sample_threshold(r_scalar)
            if math.isinf(base):
                expected.append(base)
            else:
                user = SimulatedUser(profile, table, params, seed=0)
                th = base * profile.tolerance_factor
                th += user._skill_shift("word", spec.mean_threshold())
                if shape != "ramp":
                    th -= spec.ramp_bonus
                expected.append(max(1e-3, th))
            # The batch engine's phase-1 raw-draw logic.
            if spec.p_react <= 0.0 or r_raw.random() >= spec.p_react:
                col.append(math.inf)
            elif spec.range_max is None:
                col.append(r_raw.standard_normal())
            else:
                col.append(r_raw.random())
            assert (
                r_scalar.bit_generator.state == r_raw.bit_generator.state
            )
        skill = batch_mod._BlockSkill(profiles, ("word",), params)
        got = batch_mod._finalize_thresholds(cell, skill)
        for g, e in zip(got.tolist(), expected):
            assert g == e or (math.isnan(g) and math.isnan(e))

    def test_finalize_exp_overflow_passes_base_through(self):
        # Scalar: an overflowed base (inf) is returned before tolerance/
        # skill/floor ever apply; the vectorized path must not turn
        # inf * tolerance into NaN.
        spec = ToleranceSpec(
            "word", Resource.CPU, p_react=1.0, mu=700.0, sigma=1.0
        )
        profiles = _profiles("ov", 2, 3)
        cell = _cell_fields(spec, ramp=False, th_col=[20.0, math.inf])
        skill = batch_mod._BlockSkill(profiles, ("word",), BehaviorParams())
        with np.errstate(over="ignore"):
            got = batch_mod._finalize_thresholds(cell, skill)
        assert got[0] == math.inf  # armed, base overflowed
        assert got[1] == math.inf  # never-reacting marker

    def test_finalize_all_unarmed_short_circuits(self):
        spec = ToleranceSpec(
            "word", Resource.CPU, p_react=0.5, mu=0.0, sigma=0.3
        )
        profiles = _profiles("ua", 3, 11)
        cell = _cell_fields(spec, ramp=True, th_col=[math.inf] * 3)
        skill = batch_mod._BlockSkill(profiles, ("word",), BehaviorParams())
        got = batch_mod._finalize_thresholds(cell, skill)
        assert got.tolist() == [math.inf, math.inf, math.inf]

    def test_choice_equals_bisected_cdf(self):
        # population._draw_level's decomposition of Generator.choice.
        import bisect

        probs = (0.45, 0.45, 0.10)
        cdf = np.asarray(probs).cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        for seed in range(20):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            assert int(a.choice(3, p=probs)) == bisect.bisect_right(
                cdf, b.random()
            )
            assert a.bit_generator.state == b.bit_generator.state
