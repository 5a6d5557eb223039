"""Cell-batched study engine: every user of a (task, testcase) cell at once.

:func:`repro.study.engine.run_analytic_session` already collapses the
per-sample poll loop into a closed-form numpy decision, but the study
driver still pays Python-level costs *per run*: object construction for
the user, one threshold draw per resource, the trace slicing, the record
assembly.  At fleet scale (ROADMAP: the million-user study) those
per-run costs are the bottleneck, so this engine inverts the loop
nesting — instead of running one user's 32 sessions it advances **all
users of one (task, testcase) cell together**, in three phases per
block of users:

1. **Draw** — replay each user's RNG consumption in exactly the scalar
   order (testcase ``permutation``, run-ids, per-resource thresholds,
   reaction delay, noise gate) into per-cell columns.  Only the *raw*
   draws are taken here — the draw counts are data-dependent, so the
   stream order forces a scalar loop — while every pure transform
   (the lognormal / truncated-quantile arithmetic of
   ``ToleranceSpec.sample_threshold``, the skill shift, the tolerance
   scaling) consumes no RNG and is deferred to a vectorized
   finalization pass, which applies :func:`repro.util.normal.ndtri_array`
   to a whole column where the scalar path calls ``ndtri`` once per draw
   (same bits).  One bulk draw of 32-bit words replays a user's testcase
   orders and run ids (``_session_draws``).
2. **Decide** — vectorize ``_threshold_fire_step``'s last-false scan
   across the user axis.  Monotone level series (every ramp and step the
   study ships) get an O(users) ``searchsorted`` closed form; anything
   that can dip and re-cross gets the generic 2-D ``maximum.accumulate``
   scan.  The noise step's ceil/fix-up loops become array fixpoints.
   The winner per run is the earliest candidate step, noise beating
   thresholds on ties — the scalar ``min(candidates, key=(step,
   source))``.
3. **Emit** — build ``TestcaseRun`` records in scalar emission order.
   Every discomfort offset lies on the step grid, so per-(cell, step)
   caches bound the expensive pieces (level dicts, last-values tuples,
   trace views of the cell's shared traces) by the number of *steps*,
   not users; all exhausted runs of a cell share one trace view.  Shared mappings are safe: records
   are frozen, and equality/JSON never see object identity.  Records are
   assembled from per-cell template dicts via ``object.__new__`` —
   every field combination the templates produce is validated once per
   cell against the real constructor, then stamped per run without
   re-running dataclass ``__init__``/``__post_init__``.

The contract is byte-for-byte identity with the scalar engines on any
config — enforced by the ``tests/test_engine_equivalence.py`` property
suite, the golden seed-2004 pin (``tests/test_golden_study.py``), and
``tests/shardcheck.py --engine batch``.  Because the sharded supervisor
drives workers through :func:`repro.study.controlled.run_user_range`,
shards, checkpoints, and resume inherit the batch path with unchanged
byte spans.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.feedback import DiscomfortEvent, RunOutcome
from repro.core.run import RunContext, TestcaseRun, TraceView
from repro.core.session import record_session_metrics, record_user_session
from repro.core.testcase import Testcase
from repro.study.engine import CellTraces
from repro.telemetry import get_telemetry
from repro.users.behavior import _SKILL_STEP, BehaviorParams
from repro.users.profile import RATING_CATEGORIES, SkillLevel, UserProfile
from repro.util.heap import gc_paused
from repro.util.normal import ndtri_array
from repro.util.rng import _fnv_words, derive_rng

__all__ = ["run_batch_user_range"]

#: Users advanced per batch block.  Bounds the per-cell draw arrays and
#: decision temporaries regardless of ``n_users``; the records
#: themselves still accumulate for the whole range.  Bigger blocks
#: amortize the per-block decide/emit passes better (measurably so up
#: to ~20k users/block); the block's transient lists stay far below the
#: retained records' footprint.
_USER_BLOCK = 32768

#: Rows per 2-D threshold-fire chunk (memory bound: chunk × n_steps
#: float64 temporaries, ~4 MB at the study's 480 steps).
_FIRE_CHUNK = 1024

#: Buckets for the ``uucs_study_batch_users_per_call`` histogram: cell
#: calls are per user-block, so powers of two up to ``_USER_BLOCK``.
_USERS_PER_CALL_BUCKETS = (1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0)

_RATING_KEYS = tuple((f"rating_{cat}", cat) for cat in RATING_CATEGORIES)
_TYPICAL = SkillLevel.TYPICAL


def _skill_shift(
    profile: UserProfile, task: str, scale: float, params: BehaviorParams
) -> float:
    """``SimulatedUser._skill_shift`` replicated term for term."""
    if not math.isfinite(scale):
        return 0.0
    shift = 0.0
    shift += (
        _SKILL_STEP[profile.rating_for_task(task)]
        * params.skill_app_fraction
        * scale
    )
    for category in ("pc", "windows"):
        shift += (
            _SKILL_STEP[profile.rating(category)]
            * params.skill_general_fraction
            * scale
        )
    return shift


class _BlockSkill:
    """User-axis arrays for the deferred threshold math of one block.

    The draw loop stores *raw* RNG draws; the per-user constants they
    combine with (tolerance factor, skill-shift terms) are hoisted here
    so `_finalize_thresholds` can apply them as single array
    expressions.  Each array element replays the scalar float ops in
    the scalar order — ``(step * fraction) * scale`` with the same
    grouping — so the products are bit-identical (asserted against
    ``_skill_shift`` by the equivalence suite).
    """

    __slots__ = ("tolerance", "app", "pc", "win", "shifts")

    def __init__(self, profiles, tasks, behavior: BehaviorParams):
        app_frac = behavior.skill_app_fraction
        gen_frac = behavior.skill_general_fraction
        step = _SKILL_STEP
        self.tolerance = np.array(
            [p.tolerance_factor for p in profiles]
        )
        self.app = {
            task: np.array([
                step[p.rating_for_task(task)] * app_frac for p in profiles
            ])
            for task in tasks
        }
        self.pc = np.array(
            [step[p.rating("pc")] * gen_frac for p in profiles]
        )
        self.win = np.array(
            [step[p.rating("windows")] * gen_frac for p in profiles]
        )
        self.shifts: dict[int, np.ndarray] = {}

    def shift(self, draw: _ResourceDraw) -> np.ndarray:
        """The per-user skill shift column for ``draw``'s (task, scale)."""
        arr = self.shifts.get(draw.key)
        if arr is None:
            scale = draw.mean
            if math.isfinite(scale):
                # ((0.0 + app) + pc) + win, each term (step*frac)*scale —
                # the scalar accumulation order of _skill_shift.
                arr = (
                    self.app[draw.task] * scale + self.pc * scale
                ) + self.win * scale
            else:
                arr = np.zeros(len(self.tolerance))
            self.shifts[draw.key] = arr
        return arr


def _finalize_thresholds(
    draw: _ResourceDraw, col: list, skill: _BlockSkill
) -> np.ndarray:
    """Turn a column of raw draws into threshold values, vectorized.

    ``col`` holds ``inf`` for never-reacting members and the raw second
    draw otherwise (a standard normal for untruncated specs, a uniform
    for truncated ones).  Replays ``ToleranceSpec.sample_threshold`` +
    ``SimulatedUser.threshold_for`` elementwise: same op order, with
    ``math.exp`` applied per element on the truncated path (the scalar
    calls libm there, and libm and numpy's vectorized exp may differ in
    the last ulp) and ``np.fmax`` for the floor (``fmax(1e-3, nan) ==
    max(1e-3, nan) == 1e-3``, unlike ``np.maximum``).
    """
    raw = np.asarray(col, dtype=float)
    armed = np.isfinite(raw)
    th = np.full(len(raw), math.inf)
    if not armed.any():
        return th
    r = raw[armed]
    if draw.is_z:
        # Scalar: float(np.exp(mu + sigma * z)) — np.exp's array kernel
        # is elementwise-identical to its scalar call (already
        # load-bearing for the reaction delays; property-tested).
        base = np.exp(draw.mu + draw.sigma * r)
    elif draw.f_max == 0.0:  # all the mass lies above range_max
        base = np.zeros(r.size)
    else:
        u = draw.f_max * r
        arg = draw.mu + draw.sigma * ndtri_array(u)
        base = np.array([math.exp(v) for v in arg.tolist()])
    t = base * skill.tolerance[armed]
    t = t + skill.shift(draw)[armed]
    if draw.not_ramp:
        t = t - draw.ramp_bonus
    t = np.fmax(1e-3, t)
    # Overflowed base: the scalar path takes ``threshold = base``
    # before any of the shift math, so replicate that verbatim rather
    # than trusting inf to survive the arithmetic above.
    overflowed = np.isinf(base)
    if overflowed.any():
        t[overflowed] = math.inf
    th[armed] = t
    return th


_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
#: numpy SeedSequence entropy-pool hash constants (O'Neill's seed
#: sequence algorithm, as shipped in numpy.random.bit_generator).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: PCG64's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _DerivedStream:
    """Per-user Generators of one ``derive_rng(seed, label, ·)`` family.

    ``derive_rng`` costs one SeedSequence construction plus one
    PCG64/Generator allocation per call — the study's per-user fixed
    cost.  This class replays numpy's SeedSequence entropy-pool hash
    and PCG64 seeding in pure ints, amortizing every step that does not
    depend on the user index (the entropy words, the label words, and
    the full pool cross-mix), and rebinds ONE reused PCG64/Generator
    pair per user through the state setter.  The result is bit- and
    stream-identical to ``default_rng(SeedSequence(entropy,
    spawn_key=fnv(label) + fnv(index)))`` — i.e. to ``derive_rng(seed,
    label, index)`` — which the equivalence tests assert directly
    against the scalar path.

    Only valid for plain-int entropy; callers fall back to
    ``derive_rng`` otherwise.
    """

    __slots__ = ("pool", "hash_const", "bit_generator", "generator", "_state")

    def __init__(self, entropy: int, label: str):
        words = []
        v = entropy
        if v == 0:
            words.append(0)
        while v:
            words.append(v & _M32)
            v >>= 32
        if len(words) < 4:
            # SeedSequence zero-pads run entropy to the pool size
            # whenever a spawn key is present.
            words.extend([0] * (4 - len(words)))
        words.extend(_fnv_words(label))

        # Pool fill (first 4 words), full cross-mix, then fold in the
        # remaining words — numpy's mix_entropy, verbatim, with the
        # running hash constant advancing through every hashmix call.
        hc = _INIT_A
        pool = []
        for i in range(4):
            val = words[i] ^ hc
            hc = (hc * _MULT_A) & _M32
            val = (val * hc) & _M32
            pool.append(val ^ (val >> 16))
        for i_src in range(4):
            for i_dst in range(4):
                if i_src != i_dst:
                    val = pool[i_src] ^ hc
                    hc = (hc * _MULT_A) & _M32
                    val = (val * hc) & _M32
                    val ^= val >> 16
                    r = ((pool[i_dst] * _MIX_L) - (val * _MIX_R)) & _M32
                    pool[i_dst] = r ^ (r >> 16)
        for i_src in range(4, len(words)):
            word = words[i_src]
            for i_dst in range(4):
                val = word ^ hc
                hc = (hc * _MULT_A) & _M32
                val = (val * hc) & _M32
                val ^= val >> 16
                r = ((pool[i_dst] * _MIX_L) - (val * _MIX_R)) & _M32
                pool[i_dst] = r ^ (r >> 16)
        self.pool = pool
        self.hash_const = hc
        self.bit_generator = np.random.PCG64()
        self.generator = np.random.Generator(self.bit_generator)
        self._state = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": 0},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def seeds(self, w0, w1) -> list[tuple[int, int]]:
        """PCG64 ``(state, inc)`` for each spawn-key tail ``(w0[k],
        w1[k])`` (user indices' FNV words), hashed for all users at once
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

    def rng_at(self, state: int, inc: int) -> np.random.Generator:
        """This family's Generator, set to one user's seeded state."""
        st = self._state
        st["state"]["state"] = state
        st["state"]["inc"] = inc
        self.bit_generator.state = st
        return self.generator

    def rng(self, w0: int, w1: int) -> np.random.Generator:
        """The Generator for spawn-key tail ``(w0, w1)`` (the user
        index's FNV words)."""
        ((state, inc),) = self.seeds([w0], [w1])
        return self.rng_at(state, inc)


#: 32-bit words drawn up front per user-session stream, per testcase
#: of the study: four for its run id, and on average well under four
#: for its swap in the task's shuffle.
_WORDS_PER_RUN = 8


def _shuffle_swaps(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``n`` and ``(i, mask)`` for each swap ``Generator.shuffle`` makes
    on ``n`` items: ``random_interval(i)`` takes 32-bit words ``w``
    until ``w & mask <= i``, ``mask`` the smallest all-ones value >= i."""
    return n, tuple(
        (i, (1 << i.bit_length()) - 1) for i in range(n - 1, 0, -1)
    )


def _session_draws(rng, swaps_by_task) -> list[tuple[list[int], str]]:
    """A user's ``(testcase order, run-id hex)`` per task, drawn from
    the ``user-session`` stream exactly as the scalar engine draws them.

    Per task the scalar engine calls ``rng.permutation(n)`` and then
    draws ``n`` 16-byte run ids.  Both consume the stream one 32-bit
    word at a time: the permutation's swaps by rejection sampling, the
    run ids four bytes to a word, low byte first.  So one
    ``integers(0, 2**32, dtype=uint32)`` draw yields the same words,
    and replaying the swaps and cutting the ids from the words gives
    the same orders and ids (property-tested).  Nothing else reads this
    stream, so drawing past its end is harmless; running short just
    draws more and replays.
    """
    budget = _WORDS_PER_RUN * sum(n for n, _ in swaps_by_task)
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


class _ResourceDraw:
    """Per-(cell, resource) constants for the inlined threshold draw."""

    __slots__ = (
        "resource", "task", "key", "p_react", "mu", "sigma", "f_max",
        "is_z", "mean", "not_ramp", "ramp_bonus",
    )

    def __init__(self, task: str, resource, spec, shape: str):
        self.resource = resource
        self.task = task
        self.key = (task, resource)
        self.p_react = spec.p_react
        self.mu = spec.mu
        self.sigma = spec.sigma
        self.f_max = None if spec.range_max is None else spec.f_max
        #: Whether the reactive draw consumes a standard normal (the
        #: untruncated lognormal path) instead of a uniform (the
        #: truncated inverse-CDF path).
        self.is_z = self.f_max is None
        self.mean = spec.mean_threshold()
        self.not_ramp = shape != "ramp"
        self.ramp_bonus = spec.ramp_bonus


class _CellPlan:
    """Everything one (task, testcase) cell shares across its users."""

    __slots__ = (
        "task_name", "testcase", "duration", "sample_rate", "dt", "n_steps",
        "level_arrays", "monotone", "shapes", "p_noise", "draws",
        "delay_mu", "delay_sigma",
        "trace_table", "exhausted_template", "step_templates",
        "fast_templates",
        "th_cols", "delay_z", "noise", "run_ids",
        "contexts", "emit",
    )

    def __init__(self, task_name, testcase: Testcase, traces: CellTraces,
                 table, behavior: BehaviorParams):
        self.task_name = task_name
        self.testcase = testcase
        self.duration = testcase.duration
        self.sample_rate = testcase.sample_rate
        self.dt = 1.0 / testcase.sample_rate
        self.n_steps = traces.n_steps
        n_steps = self.n_steps
        self.level_arrays = traces.levels
        self.monotone = {
            resource: bool(np.all(np.diff(levels) >= 0.0))
            for resource, levels in self.level_arrays.items()
        }
        self.shapes = {r: fn.shape for r, fn in testcase.functions.items()}
        self.p_noise = behavior.noise_probability(
            task_name, testcase.duration, testcase.is_blank()
        )
        self.delay_sigma = behavior.reaction_delay_sigma
        self.delay_mu = -self.delay_sigma**2 / 2.0
        self.draws = [
            _ResourceDraw(task_name, resource, table.spec(task_name, resource),
                          fn.shape)
            for resource, fn in testcase.functions.items()
            if not fn.is_blank()
        ]

        # Every record's trace is a prefix view of the cell's table.
        self.trace_table = traces.table

        # Record templates: all fields but run_id/context, checked once
        # through the real (validating) constructor.  Exhausted runs are
        # the common case and all identical but for identity fields;
        # discomfort templates are cached per (step, source) in
        # _step_template, bounded by the step grid.
        self.exhausted_template = self._template(
            outcome=RunOutcome.EXHAUSTED,
            end_offset=testcase.duration,
            levels_at_end=testcase.levels_at(testcase.duration),
            last_values={
                r: tuple(np.asarray(v).tolist())
                for r, v in testcase.last_values(testcase.duration).items()
            },
            feedback=None,
            load_trace=TraceView(self.trace_table, n_steps),
        )
        self.step_templates: dict[tuple[int, str], dict] = {}
        #: int-key alias of the same templates for the emit loop:
        #: -1 == exhausted, ``step*2 + is_noise`` otherwise.
        self.fast_templates: dict[int, dict] = {}
        self.reset()

    def _template(self, **fields) -> dict:
        """A record-field template, validated via the real constructor."""
        probe = TestcaseRun(
            run_id="template",
            testcase_id=self.testcase.testcase_id,
            context=RunContext(user_id="template"),
            testcase_duration=self.duration,
            shapes=self.shapes,
            load_trace_rate=self.sample_rate,
            **fields,
        )
        template = dict(probe.__dict__)
        del template["run_id"], template["context"]
        return template

    def _step_template(self, step: int, source: str) -> dict:
        """Template for a discomfort record firing at ``step``."""
        key = (step, source)
        template = self.step_templates.get(key)
        if template is None:
            testcase = self.testcase
            shared = self.step_templates.get((step, "noise" if
                                              source == "simulated"
                                              else "simulated"))
            if shared is not None:
                # Same step, other source: reuse every offset-derived
                # mapping, swap only the event.
                event = shared["feedback"]
                template = dict(shared)
                template["feedback"] = DiscomfortEvent(
                    offset=event.offset, levels=event.levels, source=source
                )
            else:
                offset = min(step * self.dt, self.duration)
                levels = testcase.levels_at(offset)
                template = self._template(
                    outcome=RunOutcome.DISCOMFORT,
                    end_offset=offset,
                    levels_at_end=levels,
                    last_values={
                        r: tuple(np.asarray(v).tolist())
                        for r, v in testcase.last_values(offset).items()
                    },
                    feedback=DiscomfortEvent(
                        offset=offset, levels=levels, source=source
                    ),
                    load_trace=TraceView(self.trace_table, step + 1),
                )
            self.step_templates[key] = template
        return template

    def reset(self) -> None:
        """Clear per-block member state (draws and run identities)."""
        self.th_cols: list[list[float]] = [[] for _ in self.draws]
        self.delay_z: list[float] = []
        self.noise: list[float] = []
        self.run_ids: list[str] = []
        self.contexts: list[RunContext] = []
        self.emit: list[int] = []


def _draw_triples(cell: _CellPlan):
    """The draw loop's per-cell dispatch value (see ``hot_by_task``):
    ``None`` (no draws), one bare ``(p_react, is_z, append)`` triple
    (the dominant single-resource cells — recognized in the loop by a
    float first element), or a tuple of triples."""
    triples = tuple(
        (float(d.p_react), d.is_z, col.append)
        for d, col in zip(cell.draws, cell.th_cols)
    )
    if not triples:
        return None
    if len(triples) == 1:
        return triples[0]
    return triples


def _fire_steps(
    levels: np.ndarray,
    thresholds: np.ndarray,
    delays: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Vectorized ``_threshold_fire_step`` across the user axis.

    ``levels`` is the cell's (n_steps,) series; ``thresholds`` and
    ``delays`` are per-user.  Returns the first firing step per user,
    ``-1`` where the poll loop would never fire.  Row ``u`` is
    element-identical to ``_threshold_fire_step(levels, thresholds[u],
    delays[u], dt)`` — same crossing reset on dips, same ``i * dt``
    float products.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    delays = np.asarray(delays, dtype=float)
    n_steps = len(levels)
    idx = np.arange(n_steps)
    t = idx.astype(float) * dt
    out = np.full(len(thresholds), -1, dtype=np.int64)
    for base in range(0, len(thresholds), _FIRE_CHUNK):
        th = thresholds[base : base + _FIRE_CHUNK]
        delay = delays[base : base + _FIRE_CHUNK]
        above = levels[None, :] >= th[:, None]
        last_false = np.maximum.accumulate(
            np.where(above, -1, idx[None, :]), axis=1
        )
        crossed = (last_false + 1).astype(float) * dt
        fire = above & (t[None, :] - crossed >= delay[:, None])
        hit = fire.any(axis=1)
        first = np.argmax(fire, axis=1)
        out[base : base + _FIRE_CHUNK] = np.where(hit, first, -1)
    return out


def _fire_steps_monotone(
    levels: np.ndarray,
    thresholds: np.ndarray,
    delays: np.ndarray,
    dt: float,
) -> np.ndarray:
    """``_fire_steps`` for monotone non-decreasing level series.

    With no dips there is exactly one crossing, found by binary search:
    the first index with ``levels[i] >= threshold``.  The fire step is
    then the first ``i`` with ``i*dt - crossing*dt >= delay``, located
    by the same guess-and-fix-up pattern the noise step uses so the
    float products match the scalar scan exactly.  Equivalence with
    ``_fire_steps`` on monotone input is property-tested.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    delays = np.asarray(delays, dtype=float)
    n_steps = len(levels)
    first_above = np.searchsorted(levels, thresholds, side="left")
    armed = first_above < n_steps
    crossed_t = first_above.astype(float) * dt
    i = first_above + np.maximum(
        np.ceil(delays / dt - 1e-12).astype(np.int64), 0
    )
    while True:
        low = armed & (i.astype(float) * dt - crossed_t < delays)
        if not low.any():
            break
        i[low] += 1
    while True:
        high = armed & (i > first_above) & (
            (i - 1).astype(float) * dt - crossed_t >= delays
        )
        if not high.any():
            break
        i[high] -= 1
    return np.where(armed & (i < n_steps), i, -1)


def _noise_steps(
    noise_times: np.ndarray, dt: float, n_steps: int
) -> np.ndarray:
    """Vectorized noise-step rule: first polled step with ``t >= noise``.

    ``noise_times`` uses NaN for "no noise this run".  Returns the step
    per user, ``-1`` where there is no noise event inside the run — the
    scalar ceil plus both float-rounding fix-up loops, as fixpoints.
    """
    noise_times = np.asarray(noise_times, dtype=float)
    scheduled = ~np.isnan(noise_times)
    nt = np.where(scheduled, noise_times, 0.0)
    i = np.ceil(nt / dt - 1e-12).astype(np.int64)
    while True:
        low = scheduled & (i * dt < nt)
        if not low.any():
            break
        i[low] += 1
    while True:
        high = scheduled & (i > 0) & ((i - 1) * dt >= nt)
        if not high.any():
            break
        i[high] -= 1
    return np.where(scheduled & (i < n_steps), i, -1)


def _decide(
    cell: _CellPlan, delay_means: np.ndarray, skill: _BlockSkill
) -> tuple[np.ndarray, np.ndarray]:
    """Phase 2: per-member (step, is_noise) for one cell.

    ``delay_means`` is the block-wide per-user array — every user owns
    exactly one member per cell, in user order, so one array serves all
    cells.  ``step`` uses ``n_steps`` as the "no event, run exhausts"
    sentinel.
    """
    n = len(cell.run_ids)
    n_steps = cell.n_steps
    sentinel = n_steps  # past any valid step
    sim_step = np.full(n, sentinel, dtype=np.int64)
    if cell.draws:
        # One vectorized exp for the whole cell's reaction delays.
        # numpy routes the scalar np.exp the scalar engine calls through
        # the same dispatched ufunc kernel (n == 1), so the array call
        # is element-identical — asserted by the equivalence property
        # suite and the golden pin, which would both fail loudly on a
        # numpy build where that ever stopped holding.
        delays = delay_means * np.exp(
            cell.delay_mu + cell.delay_sigma * np.asarray(cell.delay_z)
        )
        for draw, col in zip(cell.draws, cell.th_cols):
            th = _finalize_thresholds(draw, col, skill)
            rows = np.nonzero(np.isfinite(th))[0]
            if rows.size == 0:
                continue
            levels = cell.level_arrays[draw.resource]
            fire = (
                _fire_steps_monotone
                if cell.monotone[draw.resource]
                else _fire_steps
            )
            steps = fire(levels, th[rows], delays[rows], cell.dt)
            fired = steps >= 0
            hit = rows[fired]
            sim_step[hit] = np.minimum(sim_step[hit], steps[fired])
    noise = _noise_steps(np.asarray(cell.noise), cell.dt, n_steps)
    noise_step = np.where(noise >= 0, noise, sentinel)
    step = np.minimum(sim_step, noise_step)
    # Noise is polled before thresholds, so it wins step ties — the
    # scalar min over (step, source) with "noise" < "simulated".
    return step, noise_step <= sim_step


def _emit(
    cell: _CellPlan, records: list, delay_means: np.ndarray,
    skill: _BlockSkill,
) -> None:
    """Phase 3: assemble this cell's records into their study slots."""
    steps, is_noise = _decide(cell, delay_means, skill)
    # Pack (step, source) into one int: -1 for exhausted runs,
    # ``step*2 + noisy`` otherwise — computed vectorized, and int dict
    # keys hash measurably cheaper than (step, source) tuples in this
    # per-run loop.
    keys = np.where(
        steps >= cell.n_steps, -1, steps * 2 + is_noise
    ).tolist()
    cache = cell.fast_templates
    get = cache.get
    step_template = cell._step_template
    new = object.__new__
    cls = TestcaseRun
    for slot, run_id, context, key in zip(
        cell.emit, cell.run_ids, cell.contexts, keys,
    ):
        template = get(key)
        if template is None:
            if key < 0:
                template = cell.exhausted_template
            else:
                template = step_template(
                    key >> 1, "noise" if key & 1 else "simulated"
                )
            cache[key] = template
        run = new(cls)
        d = run.__dict__
        d.update(template)
        d["run_id"] = run_id
        d["context"] = context
        records[slot] = run


def run_batch_user_range(config, start, stop, fixtures) -> list[TestcaseRun]:
    """Cell-batched equivalent of the scalar ``run_user_range`` body.

    Same signature contract as the scalar path: sessions for users
    ``start <= index < stop`` in index order, byte-identical records for
    any partition of the index range — which is exactly why the sharded
    supervisor can call it per shard without touching checkpoint spans.
    Range validation and fixture construction happen in
    :func:`repro.study.controlled.run_user_range`, the only caller.

    The cyclic garbage collector is paused for the duration of the call:
    the engine allocates millions of (acyclic, refcounted) records, and
    generational scans over that live heap dominate the runtime once
    studies pass a few thousand users.  On the way out the records go
    straight to the oldest generation, which only a full collection
    scans.
    """
    # Local import: controlled imports the engine registry at module
    # level and resolves this module lazily, so the constants must be
    # pulled in here to keep the import graph acyclic.
    from repro.study.controlled import _INTER_TESTCASE_GAP, _PREAMBLE_MINUTES

    telemetry = get_telemetry()
    started = time.perf_counter() if telemetry.enabled else 0.0
    # Raw-draw marker for "this member never reacts": the only
    # non-finite value a threshold column can hold, so finiteness is
    # the armed mask in _finalize_thresholds.
    _NEVER = math.inf
    machine_id = fixtures.machine.spec.name
    behavior = config.behavior
    entropy = (
        config.seed.entropy
        if isinstance(config.seed, np.random.SeedSequence)
        else config.seed
    )
    if isinstance(entropy, int):
        session_stream = _DerivedStream(entropy, "user-session")
        behavior_stream = _DerivedStream(entropy, "user-behavior")
    else:
        # Exotic entropy (e.g. a sequence) — take the scalar path's own
        # derivation, trading speed for unconditional identity.
        session_stream = behavior_stream = None
    profiles = fixtures.profiles
    tasks = config.tasks

    cells_by_task: list[list[_CellPlan]] = []
    for task_name in tasks:
        cells_by_task.append([
            _CellPlan(task_name, testcase,
                      fixtures.cell_traces(task_name, slot),
                      config.table, behavior)
            for slot, testcase in enumerate(
                fixtures.testcases_by_task[task_name]
            )
        ])
    # Intern each distinct (task, resource) to a small-int key: the
    # per-user skill-shift cache (the shift is a pure function of
    # profile, task, and the spec mean) then hashes ints, and draws of
    # the same pair in different cells share one cache entry.
    key_ids: dict[tuple, int] = {}
    for cells in cells_by_task:
        for cell in cells:
            for draw in cell.draws:
                draw.key = key_ids.setdefault(
                    draw.key, len(key_ids)
                )
    runs_per_user = sum(len(cells) for cells in cells_by_task)
    swaps_by_task = [_shuffle_swaps(len(cells)) for cells in cells_by_task]
    records: list[TestcaseRun | None] = [None] * ((stop - start) * runs_per_user)

    with gc_paused():
        emit = 0
        for block_start in range(start, stop, _USER_BLOCK):
            block_stop = min(block_start + _USER_BLOCK, stop)

            # Per-block hot view of each cell: bound append methods and
            # unpacked constants, so the inner loop pays one tuple
            # unpack instead of a dozen attribute lookups per run.
            # Rebuilt every block because reset() swaps the lists.
            # ``pairs`` is arity-specialized: None for blank cells, a
            # bare (p_react, is_z, append) triple for the single-draw
            # cells that dominate real studies (no inner loop, no
            # iterator setup per run), a tuple of triples otherwise.
            hot_by_task = [
                [
                    (
                        _draw_triples(cell),
                        cell.delay_z.append,
                        cell.noise.append,
                        cell.run_ids.append,
                        cell.contexts.append,
                        cell.emit.append,
                        cell.p_noise,
                        cell.duration,
                        cell.duration + _INTER_TESTCASE_GAP,
                    )
                    for cell in cells
                ]
                for cells in cells_by_task
            ]
            block_means: list[float] = []

            # --- phase 1: per-user draws, in exact scalar RNG order ----
            if session_stream is not None:
                w0, w1 = zip(*map(_fnv_words, range(block_start, block_stop)))
                session_seeds = session_stream.seeds(w0, w1)
                behavior_seeds = behavior_stream.seeds(w0, w1)
            for index in range(block_start, block_stop):
                if session_stream is not None:
                    k = index - block_start
                    rng = session_stream.rng_at(*session_seeds[k])
                    brng = behavior_stream.rng_at(*behavior_seeds[k])
                else:
                    rng = derive_rng(config.seed, "user-session", index)
                    brng = derive_rng(config.seed, "user-behavior", index)
                brandom = brng.random
                bnormal = brng.standard_normal
                session = _session_draws(rng, swaps_by_task)
                profile = profiles[index]
                ratings = profile.ratings
                delay_mean = profile.reaction_delay_mean
                context_base = {
                    "user_id": profile.user_id,
                    "task": "",
                    "client_id": "",
                    "machine_id": machine_id,
                    "started_at": 0.0,
                    "extra": {
                        "study": "controlled",
                        **{
                            key: ratings.get(cat, _TYPICAL).value
                            for key, cat in _RATING_KEYS
                        },
                    },
                }
                block_means.append(delay_mean)
                clock = _PREAMBLE_MINUTES * 60.0
                for task_name, hot, (order, hexs) in zip(
                    tasks, hot_by_task, session
                ):
                    context_base["task"] = task_name
                    off = 0
                    for cell_index in order:
                        (
                            pairs, z_append,
                            noise_append, ids_append, ctx_append,
                            emit_append, p_noise, duration, advance,
                        ) = hot[cell_index]
                        # ToleranceSpec.sample_threshold's RNG
                        # consumption only; the arithmetic that turns
                        # the raw draw into a threshold is pure (no
                        # further RNG), so it is deferred to
                        # _finalize_thresholds and applied as one
                        # array expression per cell draw.  (The
                        # truncated path stores the bare random(); its
                        # f_max* product happens in the finalize pass.)
                        if pairs is not None:
                            if type(pairs[0]) is float:
                                p_react, is_z, th_append = pairs
                                if (
                                    p_react <= 0.0
                                    or brandom() >= p_react
                                ):
                                    th_append(_NEVER)
                                elif is_z:
                                    th_append(bnormal())
                                else:
                                    th_append(brandom())
                            else:
                                for p_react, is_z, th_append in pairs:
                                    if (
                                        p_react <= 0.0
                                        or brandom() >= p_react
                                    ):
                                        th_append(_NEVER)
                                    elif is_z:
                                        th_append(bnormal())
                                    else:
                                        th_append(brandom())
                        z_append(bnormal())
                        noise_append(
                            duration * brandom()
                            if brandom() < p_noise
                            else math.nan
                        )
                        ids_append(hexs[off : off + 32])
                        off += 32
                        # Frozen dataclasses block __dict__ *assignment*
                        # but not in-place fill of the fresh empty dict.
                        context = object.__new__(RunContext)
                        d = context.__dict__
                        d.update(context_base)
                        d["started_at"] = clock
                        ctx_append(context)
                        emit_append(emit)
                        emit += 1
                        clock += advance

            # --- phases 2+3: decide and emit, one cell at a time -------
            delay_means = np.asarray(block_means)
            skill = _BlockSkill(
                profiles[block_start:block_stop], tasks, behavior
            )
            for cells in cells_by_task:
                for cell in cells:
                    if telemetry.enabled:
                        telemetry.metrics.histogram(
                            "uucs_study_batch_users_per_call",
                            "Users advanced per batched cell call.",
                            unit="users",
                            buckets=_USERS_PER_CALL_BUCKETS,
                        ).observe(float(len(cell.run_ids)))
                    _emit(cell, records, delay_means, skill)
                    cell.reset()

    if telemetry.enabled and records:
        elapsed = time.perf_counter() - started
        per_run = elapsed / len(records)
        for run in records:
            record_session_metrics(telemetry, run, "batch", per_run)
        for offset in range(0, len(records), runs_per_user):
            record_user_session(
                telemetry,
                profiles[start + offset // runs_per_user].user_id,
                records[offset : offset + runs_per_user],
            )
    return records
