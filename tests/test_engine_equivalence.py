"""The fast engines' contract: bit-for-bit equivalence with the loop.

The vectorized engines (repro.study.engine's analytic closed form and
repro.study.batch's cell-batched fleet path) may only ever be
optimizations.  These tests drive the engines with identically-seeded
users over the full study and over adversarial generated shapes, and
require *identical* run records — outcomes, offsets, levels, traces —
down to the serialized bytes the result store would hold.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import get_task
from repro.apps.registry import TASK_ORDER
from repro.core.exercise import ExerciseFunction
from repro.core.resources import Resource
from repro.core.run import RunContext, TestcaseRun
from repro.core.session import run_simulated_session
from repro.core.testcase import Testcase
from repro.machine import SimulatedMachine
from repro.monitor.base import SimulatedMonitor
from repro.study import ControlledStudyConfig, run_controlled_study
from repro.study import batch as batch_mod
from repro.study.engine import _threshold_fire_step, run_analytic_session
from repro.users.behavior import BehaviorParams, SimulatedUser
from repro.users.population import sample_profile
from repro.users.tolerance import ToleranceSpec, ToleranceTable
from repro.util.rng import _fnv_words, derive_rng
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


def _scalar_fire(levels, threshold, delay, dt):
    step = _threshold_fire_step(levels, threshold, delay, dt)
    return -1 if step is None else step


class TestFireScanEdgeCases:
    """The vectorized fire scans vs the scalar, on adversarial inputs."""

    def test_threshold_exactly_at_level_sample(self):
        # >= must count equality as a crossing in both scan flavors.
        levels = np.array([0.0, 1.0, 1.5, 2.0])
        for th in (1.0, 1.5, 2.0):
            expected = _scalar_fire(levels, th, 0.0, 1.0)
            generic = batch_mod._fire_steps(
                levels, np.array([th]), np.array([0.0]), 1.0
            )
            mono = batch_mod._fire_steps_monotone(
                levels, np.array([th]), np.array([0.0]), 1.0
            )
            assert generic[0] == expected, th
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

    def test_dip_and_recross_resets_clock(self):
        # Crossing at 0 is reset by the dip; only the later run matures.
        levels = np.array([2.0, 2.0, 0.0, 2.0, 2.0, 2.0])
        expected = _scalar_fire(levels, 1.5, 2.0, 1.0)
        got = batch_mod._fire_steps(
            levels, np.array([1.5]), np.array([2.0]), 1.0
        )
        assert expected == 5 and got[0] == 5

    def test_dip_keeps_it_from_ever_firing(self):
        levels = np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0])
        got = batch_mod._fire_steps(
            levels, np.array([1.5]), np.array([1.0]), 1.0
        )
        assert got[0] == _scalar_fire(levels, 1.5, 1.0, 1.0) == -1

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
    def test_property_generic_scan_matches_scalar(
        self, values, threshold, delay, rate
    ):
        levels = np.asarray(values)
        expected = _scalar_fire(levels, threshold, delay, 1.0 / rate)
        got = batch_mod._fire_steps(
            levels, np.array([threshold]), np.array([delay]), 1.0 / rate
        )
        assert got[0] == expected

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
        """On sorted (monotone) series the closed form and the 2-D scan
        agree everywhere — the dispatch precondition in _decide."""
        levels = np.sort(np.asarray(values))
        mono = batch_mod._fire_steps_monotone(
            levels, np.array([threshold]), np.array([delay]), 1.0 / rate
        )
        generic = batch_mod._fire_steps(
            levels, np.array([threshold]), np.array([delay]), 1.0 / rate
        )
        assert mono[0] == generic[0]


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
            stream = batch_mod._DerivedStream(entropy, label)
            fast = stream.rng(*_fnv_words(index))
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
        w0, w1 = zip(*map(_fnv_words, indices))
        stream = batch_mod._DerivedStream(entropy, "user-behavior")
        for index, seed in zip(indices, stream.seeds(w0, w1)):
            ref = derive_rng(entropy, "user-behavior", index)
            assert stream.rng_at(*seed).bit_generator.state == (
                ref.bit_generator.state
            )

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
        with mock.patch.object(batch_mod, "_WORDS_PER_RUN", words_per_run):
            got = batch_mod._session_draws(
                fast, [batch_mod._shuffle_swaps(n) for n in sizes]
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
        from types import SimpleNamespace

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
        draw = SimpleNamespace(key=(task, Resource.CPU), task=task, mean=scale)
        got = skill.shift(draw)
        for profile, value in zip(profiles, got.tolist()):
            user = SimulatedUser(profile, table, params, seed=0)
            assert value == user._skill_shift(task, scale)
        # The column is computed once per (task, scale) and reused.
        assert skill.shift(draw) is got

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
        draw = batch_mod._ResourceDraw("word", Resource.CPU, spec, shape)
        col, expected = [], []
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
            elif draw.is_z:
                col.append(r_raw.standard_normal())
            else:
                col.append(r_raw.random())
            assert (
                r_scalar.bit_generator.state == r_raw.bit_generator.state
            )
        skill = batch_mod._BlockSkill(profiles, ("word",), params)
        got = batch_mod._finalize_thresholds(draw, col, skill)
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
        draw = batch_mod._ResourceDraw("word", Resource.CPU, spec, "step")
        skill = batch_mod._BlockSkill(profiles, ("word",), BehaviorParams())
        with np.errstate(over="ignore"):
            got = batch_mod._finalize_thresholds(
                draw, [20.0, math.inf], skill
            )
        assert got[0] == math.inf  # armed, base overflowed
        assert got[1] == math.inf  # never-reacting marker

    def test_finalize_all_unarmed_short_circuits(self):
        spec = ToleranceSpec(
            "word", Resource.CPU, p_react=0.5, mu=0.0, sigma=0.3
        )
        profiles = _profiles("ua", 3, 11)
        draw = batch_mod._ResourceDraw("word", Resource.CPU, spec, "ramp")
        skill = batch_mod._BlockSkill(profiles, ("word",), BehaviorParams())
        got = batch_mod._finalize_thresholds(
            draw, [math.inf, math.inf, math.inf], skill
        )
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
