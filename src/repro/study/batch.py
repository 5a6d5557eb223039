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

1. **Draw** — the ``user-session`` streams (testcase orders, run ids)
   a chunk of users at a time, the shuffles replayed in lockstep
   (``_session_chunk``); a user whose word budget runs short is
   replayed with a doubled budget.  The orders give each record its
   slot and start time.  Only the ``user-behavior`` streams are drawn
   one value at a time, in exactly the scalar order (at most one
   threshold per cell, reaction delay, noise gate), into per-cell
   columns: their draw counts are data-dependent.  Only the *raw* draws
   are taken here, while every pure transform (the lognormal /
   truncated-quantile arithmetic of ``ToleranceSpec.sample_threshold``,
   the skill shift, the tolerance scaling) consumes no RNG and is
   deferred to a vectorized finalization pass, which applies
   :func:`repro.util.normal.ndtri_array` to a whole column where the
   scalar path calls ``ndtri`` once per draw (same bits).
2. **Decide** — ``_threshold_fire_step``'s last-false scan in closed
   form across the user axis: a level series that never dips is crossed
   once, at the ``searchsorted`` index, and the reaction delay runs from
   there.  The noise step's ceil/fix-up loops become array fixpoints.
   The winner per run is the earliest candidate step, noise beating
   the threshold on ties — the scalar ``min(candidates, key=(step,
   source))``.
3. **Emit** — build each cell's ``TestcaseRun`` records, each beside
   its ``RunContext``, into their slots.  Every discomfort offset lies on
   the step grid, so one template cache per cell, keyed by step and
   source, bounds the expensive pieces (level dicts, last-values
   tuples, trace views of the cell's shared traces) by the number of
   *steps*, not users; all exhausted runs of a cell share one trace
   view.  Shared mappings are safe: records are frozen, and
   equality/JSON never see object identity.  Records are assembled
   from the cached template dicts via ``object.__new__``, without
   re-running dataclass ``__init__``/``__post_init__``.  A cell's
   exhausted template and its first discomfort template go through the
   real (validating) constructor; later discomfort templates are
   stamped from the first, with only the fields their offset decides.

Phases 1 and 2 are this simple because a controlled study runs only
Figure 8's testcases (:func:`repro.study.testcases.task_testcases`):
each is one ramp or one step on one resource, or a blank.  The engine
serves nothing else; :class:`_CellPlan` raises :class:`StudyError` for a
cell that loads two resources or whose levels dip, which the
per-session engines still run.

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
from repro.errors import StudyError
from repro.study.engine import CellTraces
from repro.telemetry import get_telemetry
from repro.users.behavior import _SKILL_STEP, BehaviorParams
from repro.util.heap import gc_paused
from repro.util.normal import ndtri_array
from repro.util.rng import DerivedStream, derive_rng

__all__ = ["run_batch_user_range"]

#: Users advanced per batch block.  Bounds the per-cell draw arrays and
#: decision temporaries regardless of ``n_users``; the records
#: themselves still accumulate for the whole range.  Bigger blocks
#: amortize the per-block decide/emit passes better (measurably so up
#: to ~20k users/block); the block's transient lists stay far below the
#: retained records' footprint.
_USER_BLOCK = 32768

#: Buckets for the ``uucs_study_batch_users_per_call`` histogram: cell
#: calls are per user-block, so powers of two up to ``_USER_BLOCK``.
_USERS_PER_CALL_BUCKETS = (1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0)


class _BlockSkill:
    """User-axis arrays for the deferred threshold math of one block.

    The draw loop stores *raw* RNG draws; the per-user constants they
    combine with (tolerance factor, skill-shift terms) are hoisted here
    so `_finalize_thresholds` can apply them as single array
    expressions.  Each array element replays the scalar float ops in
    the scalar order — ``(step * fraction) * scale`` with the same
    grouping — so the products are bit-identical (the equivalence suite
    checks each shift against ``SimulatedUser._skill_shift``).
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
        self.shifts: dict[tuple, np.ndarray] = {}

    def shift(self, task: str, resource, scale: float) -> np.ndarray:
        """The per-user skill shift column for ``(task, resource)``,
        whose spec's mean threshold is ``scale``."""
        arr = self.shifts.get((task, resource))
        if arr is None:
            if math.isfinite(scale):
                # ((0.0 + app) + pc) + win, each term (step*frac)*scale —
                # SimulatedUser._skill_shift's accumulation order.
                arr = (
                    self.app[task] * scale + self.pc * scale
                ) + self.win * scale
            else:
                arr = np.zeros(len(self.tolerance))
            self.shifts[task, resource] = arr
        return arr


def _finalize_thresholds(cell: _CellPlan, skill: _BlockSkill) -> np.ndarray:
    """Turn ``cell.th_col``, raw draws, into thresholds, vectorized.

    The column holds ``inf`` for never-reacting members and the raw
    second draw otherwise (a standard normal for untruncated specs, a
    uniform for truncated ones).  Replays ``cell.spec.sample_threshold``
    + ``SimulatedUser.threshold_for`` elementwise: same op order, with
    ``math.exp`` applied per element on the truncated path (the scalar
    calls libm there, and libm and numpy's vectorized exp may differ in
    the last ulp) and ``np.fmax`` for the floor (``fmax(1e-3, nan) ==
    max(1e-3, nan) == 1e-3``, unlike ``np.maximum``).
    """
    spec = cell.spec
    raw = np.asarray(cell.th_col, dtype=float)
    armed = np.isfinite(raw)
    th = np.full(len(raw), math.inf)
    if not armed.any():
        return th
    r = raw[armed]
    if spec.range_max is None:
        # Scalar: float(np.exp(mu + sigma * z)) — np.exp's array kernel
        # is elementwise-identical to its scalar call (already
        # load-bearing for the reaction delays; property-tested).
        base = np.exp(spec.mu + spec.sigma * r)
    elif spec.f_max == 0.0:  # all the mass lies above range_max
        base = np.zeros(r.size)
    else:
        u = spec.f_max * r
        arg = spec.mu + spec.sigma * ndtri_array(u)
        base = np.array([math.exp(v) for v in arg.tolist()])
    t = base * skill.tolerance[armed]
    t = t + skill.shift(
        cell.task_name, cell.resource, spec.mean_threshold()
    )[armed]
    if not cell.ramp:
        t = t - spec.ramp_bonus
    t = np.fmax(1e-3, t)
    # Overflowed base: the scalar path takes ``threshold = base``
    # before any of the shift math, so replicate that verbatim rather
    # than trusting inf to survive the arithmetic above.
    overflowed = np.isinf(base)
    if overflowed.any():
        t[overflowed] = math.inf
    th[armed] = t
    return th


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


#: Users whose session streams :func:`_session_chunk` replays together
#: (``DerivedStream``'s state block): bounds its arrays per call.
_SESSION_CHUNK = 1024


def _session_chunk(
    rngs, swaps_by_task, seed: int, users: np.ndarray, words_per_run: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``user-session`` draws of ``users``, whose freshly seated
    streams ``rngs`` yields, replayed in lockstep.

    Per task the scalar engine calls ``rng.permutation(n)`` and then
    draws ``n`` 16-byte run ids.  Both consume the stream one 32-bit
    word at a time: the permutation's swaps by rejection sampling, the
    run ids four bytes to a word, low byte first.  On a freshly seated
    PCG64, ``random_raw`` viewed as uint32 pairs gives those words, so
    each user's ``words_per_run`` words per run are one call.  Each swap
    is one array pass over the users, its rejection a fixpoint, and the
    run ids are cut from the words.  Nothing else reads this stream, so
    drawing past its end is harmless; a user whose words run short is
    replayed on a fresh seat with twice the words (property-tested
    against the scalar draws).

    Returns each user's cells in emission order, numbered across the
    tasks, as a (users, runs) array, and a (users, runs, 4) array of
    the ``<u4`` words whose bytes' hex is each run's id.
    """
    runs = sum(n for n, _ in swaps_by_task)
    half = (words_per_run * runs + 1) // 2
    raw = [rng.bit_generator.random_raw(half) for rng in rngs]
    n_users = len(raw)
    width = 2 * half
    # Zero words past each budget, enough for the rest of the replay to
    # read one per swap and four per run id: a zero word ends any
    # rejection, and a user who read one has run short.
    pad = sum(len(swaps) for _, swaps in swaps_by_task) + 4 * runs
    words = np.zeros((n_users, width + pad), dtype="<u4")
    words[:, :width] = np.array(raw, "<u8").reshape(n_users, half).view("<u4")
    flat = words.ravel()
    rows = np.arange(n_users) * (width + pad)
    pos = rows.copy()
    orders = np.tile(np.arange(runs), (n_users, 1))
    cells = orders.ravel()  # a view: the swaps write into orders
    ids = np.empty((n_users, 4 * runs), dtype="<u4")
    first = 0
    for n, swaps in swaps_by_task:
        at = np.arange(n_users) * runs + first
        for i, mask in swaps:
            j = flat[pos] & mask
            pos += 1
            over = np.flatnonzero(j > i)
            while over.size:
                j[over] = flat[pos[over]] & mask
                pos[over] += 1
                over = over[j[over] > i]
            a, b = at + i, at + j
            cells[a], cells[b] = cells[b], cells[a]
        ids[:, 4 * first : 4 * (first + n)] = flat[
            pos[:, None] + np.arange(4 * n)
        ]
        pos += 4 * n
        first += n
    ids = ids.reshape(n_users, runs, 4)
    short = np.flatnonzero(pos - rows > width)
    if short.size:
        again = users[short]
        # derive_rng hashes repr(key): a plain int, not an np.int64.
        orders[short], ids[short] = _session_chunk(
            [derive_rng(seed, "user-session", u) for u in again.tolist()],
            swaps_by_task, seed, again, 2 * words_per_run,
        )
    return orders, ids


class _CellPlan:
    """Everything one (task, testcase) cell shares across its users.

    Raises :class:`StudyError` unless the testcase is one a controlled
    study makes: at most one function that is not blank, whose level
    series never decreases.
    """

    __slots__ = (
        "task_name", "testcase", "duration", "sample_rate", "dt", "n_steps",
        "level_arrays", "shapes", "p_noise", "spec", "resource", "ramp",
        "delay_mu", "delay_sigma",
        "trace_table", "templates", "discomfort_fields", "samples",
        "th_col", "delay_z", "noise",
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
        self.shapes = {r: fn.shape for r, fn in testcase.functions.items()}
        self.p_noise = behavior.noise_probability(
            task_name, testcase.duration, testcase.is_blank()
        )
        self.delay_sigma = behavior.reaction_delay_sigma
        self.delay_mu = -self.delay_sigma**2 / 2.0
        loaded = [
            (resource, fn) for resource, fn in testcase.functions.items()
            if not fn.is_blank()
        ]
        if len(loaded) > 1:
            raise StudyError(
                f"testcase {testcase.testcase_id!r} loads {len(loaded)} "
                "resources; the batch engine runs one at most"
            )
        #: The loaded resource's tolerance spec, the resource and whether
        #: it ramps; ``spec`` is None for a blank cell, which draws no
        #: threshold.
        self.spec = self.resource = None
        self.ramp = False
        if loaded:
            ((resource, fn),) = loaded
            if not np.all(np.diff(self.level_arrays[resource]) >= 0.0):
                raise StudyError(
                    f"testcase {testcase.testcase_id!r} lowers its "
                    f"{resource.value} level; the batch engine runs "
                    "level series that never decrease"
                )
            self.spec = table.spec(task_name, resource)
            self.resource = resource
            self.ramp = fn.shape == "ramp"

        # Every record's trace is a prefix view of the cell's table.
        self.trace_table = traces.table

        #: Record templates, all fields but run_id/context, by emit key:
        #: -1 for the exhausted runs (the common case, all identical but
        #: for identity fields), ``step*2 + is_noise`` for a discomfort,
        #: which _step_template adds, bounded by the step grid.
        self.templates: dict[int, dict] = {-1: self._template(self._fields(
            outcome=RunOutcome.EXHAUSTED,
            end_offset=testcase.duration,
            levels_at_end=testcase.levels_at(testcase.duration),
            last_values={
                r: tuple(np.asarray(v).tolist())
                for r, v in testcase.last_values(testcase.duration).items()
            },
            feedback=None,
            load_trace=TraceView(self.trace_table, n_steps),
        ))}
        #: The first discomfort record's fields, through the constructor,
        #: and each function's samples: what later steps stamp from.
        self.discomfort_fields: dict | None = None
        self.samples: dict | None = None
        self.reset()

    def _fields(self, **fields) -> dict:
        """Every field of a record, through the real (validating)
        constructor."""
        return TestcaseRun(
            run_id="template",
            testcase_id=self.testcase.testcase_id,
            context=RunContext(user_id="template"),
            testcase_duration=self.duration,
            shapes=self.shapes,
            load_trace_rate=self.sample_rate,
            **fields,
        ).__dict__

    @staticmethod
    def _template(fields: dict, **changes) -> dict:
        """A copy of ``fields`` with ``changes``, minus run_id/context.

        The deleted keys leave the copy's table unclean, so a record's
        ``__dict__.update`` from it fills the class's key-sharing table
        rather than cloning a combined one twice its size.
        """
        template = dict(fields, **changes)
        del template["run_id"], template["context"]
        return template

    def _last_values(self, offset: float) -> dict:
        """``testcase.last_values(offset)`` (the last five values) as
        tuples, sliced from the cell's lists of each function's samples."""
        functions = self.testcase.functions.items()
        if self.samples is None:
            self.samples = {r: fn.values.tolist() for r, fn in functions}
        out = {}
        for r, fn in functions:
            end = fn.series.index_at(min(offset, fn.duration)) + 1
            out[r] = tuple(self.samples[r][max(0, end - 5) : end])
        return out

    def _step_template(self, key: int) -> dict:
        """Template for emit key ``key``: a discomfort record firing at
        step ``key >> 1``, from the noise source if ``key & 1``.

        The cell's first goes through the real constructor; later ones
        are stamped from it.  :func:`_decide`'s steps lie in ``[0,
        n_steps)``, so every offset lies in ``[0, duration]`` and every
        template carries feedback: the two facts the constructor checks.
        """
        source = "noise" if key & 1 else "simulated"
        other = self.templates.get(key ^ 1)
        if other is not None:
            # Same step, other source: reuse every offset-derived
            # mapping, swap only the event.
            event = other["feedback"]
            fields = dict(other, feedback=DiscomfortEvent(
                offset=event.offset, levels=event.levels, source=source
            ))
        else:
            step = key >> 1
            offset = min(step * self.dt, self.duration)
            levels = self.testcase.levels_at(offset)
            fields = dict(
                end_offset=offset,
                levels_at_end=levels,
                last_values=self._last_values(offset),
                feedback=DiscomfortEvent(
                    offset=offset, levels=levels, source=source
                ),
                load_trace=TraceView(self.trace_table, step + 1),
            )
            if self.discomfort_fields is None:
                self.discomfort_fields = self._fields(
                    outcome=RunOutcome.DISCOMFORT, **fields
                )
        template = self.templates[key] = self._template(
            self.discomfort_fields, **fields
        )
        return template

    def reset(self) -> None:
        """Clear per-block member draws."""
        self.th_col: list[float] = []
        self.delay_z: list[float] = []
        self.noise: list[float] = []


def _draw_triple(cell: _CellPlan):
    """The draw loop's per-cell threshold draw (see ``hot``):
    ``(p_react, is_z, append)``, or None for a blank cell.  ``is_z``:
    the reactive draw is a standard normal (the untruncated lognormal
    path), not a uniform (the truncated inverse-CDF path)."""
    spec = cell.spec
    if spec is None:
        return None
    return float(spec.p_react), spec.range_max is None, cell.th_col.append


def _fire_steps_monotone(
    levels: np.ndarray,
    thresholds: np.ndarray,
    delays: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Vectorized ``_threshold_fire_step`` across the user axis, for a
    level series that never decreases.

    ``levels`` is the cell's (n_steps,) series; ``thresholds`` and
    ``delays`` are per-user.  Returns the first firing step per user,
    ``-1`` where the poll loop would never fire.  With no dips there is
    exactly one crossing, found by binary search: the first index with
    ``levels[i] >= threshold``.  The fire step is then the first ``i``
    with ``i*dt - crossing*dt >= delay``, located by the same
    guess-and-fix-up pattern the noise step uses so the float products
    match the scalar scan exactly.  Equivalence with the scalar on
    sorted levels is property-tested.
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
    n = len(cell.noise)
    n_steps = cell.n_steps
    sentinel = n_steps  # past any valid step
    sim_step = np.full(n, sentinel, dtype=np.int64)
    if cell.spec is not None:
        # One vectorized exp for the whole cell's reaction delays.
        # numpy routes the scalar np.exp the scalar engine calls through
        # the same dispatched ufunc kernel (n == 1), so the array call
        # is element-identical — asserted by the equivalence property
        # suite and the golden pin, which would both fail loudly on a
        # numpy build where that ever stopped holding.
        delays = delay_means * np.exp(
            cell.delay_mu + cell.delay_sigma * np.asarray(cell.delay_z)
        )
        th = _finalize_thresholds(cell, skill)
        rows = np.nonzero(np.isfinite(th))[0]
        steps = _fire_steps_monotone(
            cell.level_arrays[cell.resource], th[rows], delays[rows], cell.dt
        )
        fired = steps >= 0
        sim_step[rows[fired]] = steps[fired]
    noise = _noise_steps(np.asarray(cell.noise), cell.dt, n_steps)
    noise_step = np.where(noise >= 0, noise, sentinel)
    step = np.minimum(sim_step, noise_step)
    # Noise is polled before thresholds, so it wins step ties — the
    # scalar min over (step, source) with "noise" < "simulated".
    return step, noise_step <= sim_step


def _emit(
    cell: _CellPlan, slots: list, run_ids: list, starts: list,
    bases: list, records: list, delay_means: np.ndarray, skill: _BlockSkill,
) -> None:
    """Phase 3: assemble this cell's records into their study slots.

    Per member, in user order: its slot, run id, ``started_at``, and
    its user's context fields (one ``extra`` dict per user).
    """
    steps, is_noise = _decide(cell, delay_means, skill)
    # Each member's emit key (see _CellPlan.templates), computed
    # vectorized: int dict keys hash measurably cheaper than (step,
    # source) tuples in this per-run loop.
    keys = np.where(
        steps >= cell.n_steps, -1, steps * 2 + is_noise
    ).tolist()
    get = cell.templates.get
    step_template = cell._step_template
    task = cell.task_name
    new = object.__new__
    cls = TestcaseRun
    for slot, run_id, start, base, key in zip(
        slots, run_ids, starts, bases, keys
    ):
        template = get(key)
        if template is None:
            template = step_template(key)
        # Frozen dataclasses block __dict__ *assignment* but not
        # in-place fill of the fresh empty dict.
        context = new(RunContext)
        c = context.__dict__
        c.update(base)
        c["task"] = task
        c["started_at"] = start
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
    # Local import: controlled imports this module at module level, so
    # importing it back there would be circular.
    from repro.study.controlled import (
        _INTER_TESTCASE_GAP,
        _PREAMBLE_MINUTES,
        _context_extra,
    )

    telemetry = get_telemetry()
    started = time.perf_counter() if telemetry.enabled else 0.0
    # Raw-draw marker for "this member never reacts": the only
    # non-finite value a threshold column can hold, so finiteness is
    # the armed mask in _finalize_thresholds.
    _NEVER = math.inf
    machine_id = fixtures.machine.spec.name
    behavior = config.behavior
    # One Generator per stream, re-seated for each user in turn.
    session_stream = DerivedStream(config.seed, "user-session")
    behavior_stream = DerivedStream(config.seed, "user-behavior")
    session_rng = derive_rng(config.seed, "user-session", start)
    behavior_rng = derive_rng(config.seed, "user-behavior", start)
    profiles = fixtures.profiles
    tasks = config.tasks

    # Every cell of the study, numbered across the tasks in task order,
    # as _session_chunk numbers a user's runs.
    cells = [
        _CellPlan(task_name, testcase,
                  fixtures.cell_traces(task_name, slot),
                  config.table, behavior)
        for task_name in tasks
        for slot, testcase in enumerate(fixtures.testcases_by_task[task_name])
    ]
    runs_per_user = len(cells)
    swaps_by_task = [
        _shuffle_swaps(len(fixtures.testcases_by_task[t])) for t in tasks
    ]
    # The session clock's advance over each cell's run.
    advances = np.array([c.duration + _INTER_TESTCASE_GAP for c in cells])
    records: list[TestcaseRun | None] = [None] * ((stop - start) * runs_per_user)

    with gc_paused():
        for block_start in range(start, stop, _USER_BLOCK):
            block_stop = min(block_start + _USER_BLOCK, stop)
            n_block = block_stop - block_start

            # Per-block hot view of each cell: bound append methods and
            # unpacked constants, so the inner loop pays one tuple
            # unpack instead of a handful of attribute lookups per run.
            # Rebuilt every block because reset() swaps the lists.
            hot = [
                (_draw_triple(cell), cell.delay_z.append, cell.noise.append,
                 cell.p_noise, cell.duration)
                for cell in cells
            ]
            # Per user and emission position: the start time, and the
            # run-id words; per user and cell: the position.
            clocks = np.empty((n_block, runs_per_user))
            ids = np.empty((n_block, runs_per_user, 4), dtype="<u4")
            positions = np.empty((n_block, runs_per_user), dtype=np.int32)

            # --- phase 1: session streams by chunk, then behavior draws
            # per user in exact scalar RNG order -------------------------
            for lo in range(block_start, block_stop, _SESSION_CHUNK):
                hi = min(lo + _SESSION_CHUNK, block_stop)
                rows = slice(lo - block_start, hi - block_start)
                orders, ids[rows] = _session_chunk(
                    session_stream.reseated(session_rng, lo, hi),
                    swaps_by_task, config.seed, np.arange(lo, hi),
                    _WORDS_PER_RUN,
                )
                # The preamble, then each earlier run's advance, summed
                # left to right as the scalar ``clock +=`` sums them.
                steps = np.empty(orders.shape)
                steps[:, 0] = _PREAMBLE_MINUTES * 60.0
                steps[:, 1:] = advances[orders[:, :-1]]
                np.add.accumulate(steps, axis=1, out=clocks[rows])
                # Each cell's position in its user's order: the inverse
                # permutation.
                np.put_along_axis(
                    positions[rows], orders, np.arange(runs_per_user), axis=1
                )

                for order, brng in zip(
                    orders.tolist(),
                    behavior_stream.reseated(behavior_rng, lo, hi),
                ):
                    brandom = brng.random
                    bnormal = brng.standard_normal
                    for cell_index in order:
                        draw, z_append, noise_append, p_noise, duration = (
                            hot[cell_index]
                        )
                        # ToleranceSpec.sample_threshold's RNG
                        # consumption only; the arithmetic that turns
                        # the raw draw into a threshold is pure (no
                        # further RNG), so it is deferred to
                        # _finalize_thresholds and applied as one
                        # array expression per cell.  (The truncated
                        # path stores the bare random(); its f_max*
                        # product happens in the finalize pass.)
                        if draw is not None:
                            p_react, is_z, th_append = draw
                            if p_react <= 0.0 or brandom() >= p_react:
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

            # --- phases 2+3: decide and emit, one cell at a time -------
            block_profiles = profiles[block_start:block_stop]
            bases = [
                {"user_id": profile.user_id, "task": "", "client_id": "",
                 "machine_id": machine_id, "started_at": 0.0,
                 "extra": _context_extra(profile)}
                for profile in block_profiles
            ]
            delay_means = np.array(
                [profile.reaction_delay_mean for profile in block_profiles]
            )
            skill = _BlockSkill(block_profiles, tasks, behavior)
            users = np.arange(n_block)
            first_slots = (block_start - start + users) * runs_per_user
            for cell_index, cell in enumerate(cells):
                if telemetry.enabled:
                    telemetry.metrics.histogram(
                        "uucs_study_batch_users_per_call",
                        "Users advanced per batched cell call.",
                        unit="users",
                        buckets=_USERS_PER_CALL_BUCKETS,
                    ).observe(float(n_block))
                # Each member's run sits at the cell's position in its
                # user's order; its run id is its four words' hex.
                at = positions[:, cell_index]
                text = ids[users, at].tobytes().hex()
                _emit(
                    cell, (first_slots + at).tolist(),
                    [text[k : k + 32] for k in range(0, len(text), 32)],
                    clocks[users, at].tolist(), bases, records,
                    delay_means, skill,
                )
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
