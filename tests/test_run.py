"""Tests for run records (feedback, outcomes, serialization)."""

import gc
import json
import math
import pickle
import weakref
from json.decoder import NaN
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run as run_mod
from repro.core.feedback import DiscomfortEvent, RunOutcome
from repro.core.resources import Resource
from repro.core.run import RunContext, TestcaseRun, TraceTable, TraceView
from repro.errors import SerializationError, ValidationError


def make_run(outcome=RunOutcome.DISCOMFORT, offset=45.0, **kwargs):
    feedback = None
    if outcome is RunOutcome.DISCOMFORT:
        feedback = DiscomfortEvent(
            offset=offset, levels={Resource.CPU: 1.5}, source="simulated"
        )
    defaults = dict(
        run_id="r1",
        testcase_id="tc1",
        context=RunContext(user_id="u1", task="word", started_at=100.0),
        outcome=outcome,
        end_offset=offset,
        testcase_duration=120.0,
        shapes={Resource.CPU: "ramp"},
        levels_at_end={Resource.CPU: 1.5},
        last_values={Resource.CPU: (1.1, 1.2, 1.3, 1.4, 1.5)},
        feedback=feedback,
        load_trace={"slowdown": (1.0, 1.1, 1.2)},
        load_trace_rate=1.0,
    )
    defaults.update(kwargs)
    return TestcaseRun(**defaults)


class TestOutcome:
    def test_parse(self):
        assert RunOutcome.parse("DISCOMFORT") is RunOutcome.DISCOMFORT
        with pytest.raises(ValidationError):
            RunOutcome.parse("bogus")


class TestDiscomfortEvent:
    def test_negative_offset_rejected(self):
        with pytest.raises(ValidationError):
            DiscomfortEvent(offset=-1.0)

    def test_level_for(self):
        event = DiscomfortEvent(offset=1.0, levels={Resource.CPU: 2.0})
        assert event.level_for(Resource.CPU) == 2.0
        assert event.level_for(Resource.DISK) == 0.0


class TestRunRecord:
    def test_discomfort_accessors(self):
        run = make_run()
        assert run.discomforted and not run.exhausted
        assert run.discomfort_level(Resource.CPU) == 1.5
        assert run.max_level(Resource.CPU) == 1.5

    def test_exhausted_has_no_discomfort_level(self):
        run = make_run(outcome=RunOutcome.EXHAUSTED, offset=120.0)
        assert run.exhausted
        with pytest.raises(ValidationError):
            run.discomfort_level(Resource.CPU)

    def test_feedback_outcome_consistency_enforced(self):
        with pytest.raises(ValidationError):
            make_run(outcome=RunOutcome.EXHAUSTED, offset=120.0,
                     feedback=DiscomfortEvent(offset=1.0))
        with pytest.raises(ValidationError):
            make_run(feedback=None)

    def test_end_offset_bounds(self):
        with pytest.raises(ValidationError):
            make_run(end_offset=-1.0)
        with pytest.raises(ValidationError):
            make_run(end_offset=500.0)

    def test_max_level_uses_last_values(self):
        run = make_run(levels_at_end={Resource.CPU: 1.0},
                       last_values={Resource.CPU: (0.5, 2.5)})
        assert run.max_level(Resource.CPU) == 2.5


class TestSerialization:
    def test_json_roundtrip(self):
        run = make_run()
        restored = TestcaseRun.from_json(run.to_json())
        assert restored == run

    def test_exhausted_roundtrip(self):
        run = make_run(outcome=RunOutcome.EXHAUSTED, offset=120.0)
        restored = TestcaseRun.from_json(run.to_json())
        assert restored == run
        assert restored.feedback is None

    def test_context_roundtrip_with_extras(self):
        context = RunContext(
            user_id="u", task="quake", client_id="c", machine_id="m",
            started_at=5.0, extra={"rating_pc": "power"},
        )
        assert RunContext.from_dict(context.to_dict()) == context

    def test_bad_json(self):
        with pytest.raises(SerializationError):
            TestcaseRun.from_json("not json")

    def test_missing_fields(self):
        with pytest.raises(SerializationError):
            TestcaseRun.from_dict({"run_id": "x"})

    def test_new_run_id_unique(self):
        ids = {TestcaseRun.new_run_id() for _ in range(100)}
        assert len(ids) == 100

    def test_new_run_id_seeded(self):
        import numpy as np

        a = TestcaseRun.new_run_id(np.random.default_rng(1))
        b = TestcaseRun.new_run_id(np.random.default_rng(1))
        assert a == b and len(a) == 32


def _canonical(run: TestcaseRun) -> str:
    return json.dumps(run.to_dict(), sort_keys=True)


class TestCanonicalJson:
    """``to_json``'s field-by-field assembly must stay byte-identical
    to ``json.dumps(to_dict(), sort_keys=True)`` — the form every digest,
    golden pin, and store payload is defined against."""

    def test_matches_dumps_both_outcomes(self):
        for run in (
            make_run(),
            make_run(outcome=RunOutcome.EXHAUSTED, offset=120.0),
        ):
            assert run.to_json() == _canonical(run)

    def test_adversarial_strings_and_numbers(self):
        context = RunContext(
            user_id='müller "the\\usr"\n\t\x01',
            task="quake",
            client_id="日本語-client   ",
            machine_id="m\x7f",
            started_at=-0.0,
            extra={"k\n": 'v"\\', "ключ": "значение", "": "blank"},
        )
        run = make_run(
            context=context,
            levels_at_end={Resource.CPU: math.inf, Resource.MEMORY: math.nan},
            last_values={Resource.CPU: (1.0, -math.inf, 5e-324)},
            load_trace={"slowdown": (math.nan, 2.0), "x y": (0.0, -0.0)},
            load_trace_rate=4,  # ints must render as ints, same as dumps
        )
        assert run.to_json() == _canonical(run)

    def test_shared_mappings_across_records(self):
        # The batch engine shares trace/shape mappings between records;
        # every record that shares the object must render the exact
        # bytes.
        shapes = {Resource.CPU: "step"}
        trace = {"slowdown": tuple(float(i) / 7 for i in range(50))}
        runs = [
            make_run(run_id=f"s{i}", shapes=shapes, load_trace=trace)
            for i in range(3)
        ]
        for run in runs:
            assert run.to_json() == _canonical(run)

    def test_roundtrips_through_from_json(self):
        run = make_run()
        assert TestcaseRun.from_json(run.to_json()) == run

    def test_record_mappings_collectable_after_to_json(self):
        # Serializing a record must not keep its mappings alive: a
        # finished study's records are garbage once written.
        class Watched(dict):
            """A dict that weak references can watch."""

        mappings = [
            Watched({Resource.CPU: "ramp"}),
            Watched({Resource.CPU: 1.5}),
            Watched({Resource.CPU: (1.1, 1.5)}),
            Watched({"slowdown": (1.0, 1.1)}),
        ]
        run = make_run(
            shapes=mappings[0],
            levels_at_end=mappings[1],
            last_values=mappings[2],
            load_trace=mappings[3],
        )
        assert run.to_json() == _canonical(run)
        refs = [weakref.ref(m) for m in mappings]
        del run, mappings
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4


class TestFastEncoder:
    """Plain dicts keyed by ``str`` or ``Resource`` are handed to the
    shared C encoder as they are; every other mapping is first copied
    the way ``to_dict`` copies it."""

    def test_plain_dicts_are_not_copied(self):
        # Values that to_dict keeps as they are need no check.
        by_resource = {Resource.CPU: 1.5, Resource.DISK: np.float64(2)}
        by_name = {"cpu": (1.0,), "x": [2.0]}
        assert run_mod._by_name(by_resource) is by_resource
        assert run_mod._by_name(by_name) is by_name
        assert run_mod._lists_by_name(by_name) is by_name

    @pytest.mark.parametrize("mapping", [
        MappingProxyType({Resource.CPU: (1.5,)}),
        {1: (1.5,)},
        {Resource.CPU: np.array([1.0, 2.0])},
        {Resource.CPU: range(2)},
    ])
    def test_other_mappings_take_the_copy(self, mapping):
        copied = run_mod._lists_by_name(mapping)
        assert copied is not mapping
        assert copied == {str(k): list(v) for k, v in mapping.items()}
        if type(mapping) is not dict or 1 in mapping:
            assert run_mod._by_name(mapping) is not mapping

    def test_failed_encode_leaves_the_encoder_clean(self):
        # A failed encode must not leave the mapping marked as open: the
        # same object encodes once it is fixed.
        levels = {Resource.CPU: object()}
        run = make_run(levels_at_end=levels)
        with pytest.raises(TypeError):
            run.to_json()
        levels[Resource.CPU] = 1.5
        assert run.to_json() == _canonical(run)

    def test_circular_value_raises_as_dumps_does(self):
        loop = [1.0]
        loop.append(loop)
        run = make_run(last_values={Resource.CPU: loop})
        with pytest.raises(ValueError, match="Circular reference"):
            _canonical(run)
        with pytest.raises(ValueError, match="Circular reference"):
            run.to_json()
        assert make_run().to_json() == _canonical(make_run())

    def test_empty_trace_and_view_steps(self):
        table = TraceTable(
            ["slowdown", "jitter", "empty"],
            [(1.5, -0.0, 2.25), (0.0, 5e-324, NaN), ()],
        )
        for trace in ({}, TraceView(TraceTable([], []), 3)):
            run = make_run(load_trace=trace)
            assert run.to_json() == _canonical(run)
            assert '"load_trace": {}' in run.to_json()
        for steps in (0, 1, 2, 3, 10):
            run = make_run(load_trace=TraceView(table, steps))
            assert run.to_json() == _canonical(run)

    def test_long_traces_render_whole(self, monkeypatch):
        # Up to CPython 3.11 the C encoder hands back long text as
        # several chunks (split every 100,000 accumulated pieces, about
        # two per float); every chunk must reach the record.
        column = tuple(i / 7 for i in range(60_000))
        run = make_run(load_trace={"slowdown": column, "x": list(column)})
        assert run.to_json() == _canonical(run)
        calls = []
        render = run_mod._render

        def counting(obj):
            calls.append(obj)
            return render(obj)

        monkeypatch.setattr(run_mod, "_render", counting)
        table = TraceTable(["slowdown"], [column])
        for steps in (1, 59_999, 60_000):
            run = make_run(load_trace=TraceView(table, steps))
            assert run.to_json() == _canonical(run)
        # The whole column rendered once, and sliced in one pass.
        assert calls.count(column) == 1
        assert len(calls) < 40

    def test_table_names_are_str_and_samples_floats(self):
        # A name of another type would be written unquoted, in a line
        # from_json refuses.
        with pytest.raises(ValidationError):
            TraceTable([1], [(1.0, 2.0)])
        for sample in (1, True, "1.0", [1.0]):
            table = TraceTable(["slowdown"], [(1.0, sample)])
            with pytest.raises(ValidationError):
                make_run(load_trace=TraceView(table, 2)).to_json()
        table = TraceTable(["slowdown"], [(1.0, np.float64(2.5))])
        run = make_run(load_trace=TraceView(table, 2))
        assert run.to_json() == _canonical(run)


class TestTraceView:
    """A simulated run's ``load_trace``: its cell's table cut at a step."""

    def _table(self):
        return TraceTable(
            ["slowdown", "jitter"], [(1.0, 2.0, 3.0), (0.0, 0.5)]
        )

    def test_view_equals_dict_both_ways(self):
        view = TraceView(self._table(), 2)
        plain = {"slowdown": (1.0, 2.0), "jitter": (0.0, 0.5)}
        assert view == plain and plain == view
        assert not view != plain and not plain != view
        shorter = {"slowdown": (1.0,), "jitter": (0.0,)}
        assert view != shorter and shorter != view
        assert make_run(load_trace=view) == make_run(load_trace=plain)
        assert make_run(load_trace=plain) == make_run(load_trace=view)

    def test_views_past_every_column_are_equal(self):
        table = self._table()
        assert TraceView(table, 3) == TraceView(table, 7)
        assert TraceView(table, 1) != TraceView(table, 2)

    def test_read_only_mapping(self):
        view = TraceView(self._table(), 1)
        assert list(view) == ["slowdown", "jitter"] and len(view) == 2
        assert view["slowdown"] == (1.0,) and "jitter" in view
        assert view.get("load_cpu") is None
        with pytest.raises(TypeError):
            view["slowdown"] = (9.0,)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValidationError):
            TraceTable(["a", "a"], [(1.0,), (2.0,)])
        with pytest.raises(ValidationError):
            TraceTable(["a"], [])
        with pytest.raises(ValidationError):
            TraceView(self._table(), -1)

    def test_shared_table_pickles_once(self):
        column = tuple(i / 7 for i in range(2000))
        table = TraceTable(
            ["slowdown", "contention_cpu"], [column, column[::-1]]
        )
        runs = [
            make_run(run_id=f"p{i}", load_trace=TraceView(table, 100 + i))
            for i in range(20)
        ]
        blob = pickle.dumps(runs)
        # The twenty records together cost less than one more column.
        assert len(blob) < len(pickle.dumps(table)) + len(
            pickle.dumps(column)
        )
        restored = pickle.loads(blob)
        assert restored == runs
        assert len({id(r.load_trace.table) for r in restored}) == 1
        assert [r.to_json() for r in restored] == [r.to_json() for r in runs]


#: Sample values whose JSON needs care.  NaN never equals itself, so a
#: record holding one compares equal only through identity; the samples
#: use the decoder's own NaN object, the one ``json.loads`` returns for
#: every NaN it parses.
_EDGE_SAMPLES = st.one_of(
    st.sampled_from([NaN, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
    st.floats(allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    columns=st.dictionaries(
        st.text(max_size=6), st.lists(_EDGE_SAMPLES, max_size=8), max_size=4
    ),
)
def test_property_trace_view_matches_dumps(columns):
    table = TraceTable(columns, columns.values())
    longest = max((len(c) for c in columns.values()), default=0)
    for steps in range(longest + 2):
        run = make_run(load_trace=TraceView(table, steps))
        text = run.to_json()
        assert text == _canonical(run)
        assert TestcaseRun.from_json(text) == run


@settings(max_examples=60, deadline=None)
@given(
    user_id=st.text(max_size=20),
    task=st.text(max_size=8),
    extra=st.dictionaries(
        st.text(max_size=8), st.text(max_size=8), max_size=3
    ),
    started=st.floats(allow_nan=False),
    offset=st.floats(min_value=0.0, max_value=120.0),
    level=st.floats(),
    trace=st.lists(st.floats(), max_size=6),
    rate=st.one_of(
        st.floats(), st.integers(min_value=-(10**12), max_value=10**12)
    ),
    source=st.text(max_size=8),
)
def test_property_to_json_matches_dumps(
    user_id, task, extra, started, offset, level, trace, rate, source
):
    run = TestcaseRun(
        run_id="cj",
        testcase_id="tc",
        context=RunContext(
            user_id=user_id, task=task, started_at=started, extra=extra
        ),
        outcome=RunOutcome.DISCOMFORT,
        end_offset=offset,
        testcase_duration=120.0,
        shapes={Resource.CPU: "ramp"},
        levels_at_end={Resource.CPU: level},
        last_values={Resource.CPU: tuple(trace)},
        feedback=DiscomfortEvent(
            offset=offset, levels={Resource.CPU: level}, source=source
        ),
        load_trace={"slowdown": tuple(trace)},
        load_trace_rate=rate,
    )
    assert run.to_json() == _canonical(run)


#: Values a record's mappings may hold, beyond plain floats.
_ODD_NUMBERS = st.one_of(
    _EDGE_SAMPLES,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats().map(np.float64),
)
#: Keys as the engines write them, as plain text, or of types whose
#: ``str`` is not their JSON key (``True`` renders as "true").
_KEYS = st.sampled_from(
    [Resource.CPU, Resource.MEMORY, Resource.DISK, "cpu", "disk", "gpu",
     1, True]
)


def _shaped(draw, mapping):
    """``mapping`` as a plain dict or behind a read-only proxy."""
    return mapping if draw(st.booleans()) else MappingProxyType(mapping)


@st.composite
def _sequence(draw):
    values = draw(st.lists(_ODD_NUMBERS, max_size=5))
    kind = draw(st.sampled_from(["tuple", "list", "ndarray"]))
    if kind == "ndarray":
        return np.array([float(v) for v in values])
    return tuple(values) if kind == "tuple" else values


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_property_fast_encoder_matches_dumps(data):
    draw = data.draw
    extra = draw(st.dictionaries(
        st.text(max_size=6), st.text(max_size=6), max_size=3
    ))
    extra.update(
        draw(st.sampled_from([{}, {"ключ": "значение", "名": "ü"}]))
    )
    levels = draw(st.dictionaries(_KEYS, _ODD_NUMBERS, max_size=3))
    columns = draw(st.dictionaries(
        st.text(max_size=4), st.lists(_EDGE_SAMPLES, max_size=6), max_size=3
    ))
    table = TraceTable(columns, columns.values())
    longest = max((len(c) for c in columns.values()), default=0)
    trace = draw(st.sampled_from([
        {},
        {name: tuple(column) for name, column in columns.items()},
        TraceView(table, 0),
        TraceView(table, 1),
        TraceView(table, longest),
        MappingProxyType({name: list(c) for name, c in columns.items()}),
    ]))
    run = TestcaseRun(
        run_id="fe",
        testcase_id="tc",
        context=RunContext(
            user_id=draw(st.text(max_size=6)),
            task="word",
            started_at=draw(_ODD_NUMBERS),
            extra=_shaped(draw, extra),
        ),
        outcome=RunOutcome.DISCOMFORT,
        end_offset=1.0,
        testcase_duration=120.0,
        shapes=_shaped(draw, draw(st.dictionaries(
            _KEYS, st.sampled_from(["ramp", "step", "blank", "ünï"]),
            max_size=3,
        ))),
        levels_at_end=_shaped(draw, levels),
        last_values=_shaped(draw, draw(st.dictionaries(
            _KEYS, _sequence(), max_size=3
        ))),
        feedback=DiscomfortEvent(
            offset=1.0,
            levels=_shaped(draw, dict(levels)),
            source=draw(st.text(max_size=4)),
        ),
        load_trace=trace,
        load_trace_rate=draw(_ODD_NUMBERS),
    )
    assert run.to_json() == _canonical(run)


#: Samples whose runs need care: the signed zeros, the special values,
#: the smallest subnormal, and the two sides of ``repr``'s switch to
#: exponent form (``1e+16`` beside ``9999999999999998.0``).
_RUN_VALUES = [
    0.0, -0.0, NaN, math.inf, -math.inf, 5e-324, 1e16,
    9999999999999998.0, 1.0, 0.1, 2.5, 1e-7,
]
#: Pools of 1-4 values a column's runs are drawn from; the fixed ones
#: put values that look alike side by side.
_RUN_POOLS = st.one_of(
    st.sampled_from([
        (0.0, -0.0), (1e16, 9999999999999998.0),
        (NaN, math.inf, -math.inf, 5e-324), (1.0, 0.0, -0.0),
    ]),
    st.lists(st.sampled_from(_RUN_VALUES), min_size=1, max_size=4),
)


def _twins(x):
    """``x`` and the samples of other types that equal it: an
    ``np.float64`` (not for NaN, which compares equal only as the
    decoder's own object), and an ``int`` and ``bool`` for integral
    values."""
    twins = [x]
    if x == x:
        twins.append(np.float64(x))
    if math.isfinite(x) and x == int(x):
        twins.append(int(x))
        if x in (0, 1):
            twins.append(bool(x))
    return twins


@st.composite
def _run_column(draw):
    """0-600 samples in runs of equal values drawn from one pool, with a
    few samples swapped for an ``np.float64``, ``int`` or ``bool`` of
    the same value inside their run."""
    pool = draw(_RUN_POOLS)
    runs = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(1, 150)), max_size=12
    ))
    column = [x for x, k in runs for _ in range(k)][:600]
    for i in draw(st.lists(st.integers(0, 599), max_size=6)):
        if i < len(column):
            column[i] = draw(st.sampled_from(_twins(column[i])))
    return column


@settings(max_examples=25, deadline=None)
@given(columns=st.dictionaries(st.text(max_size=6), _run_column(), max_size=3))
def test_property_runs_of_samples_match_dumps(columns):
    parsed = make_run(load_trace={k: tuple(c) for k, c in columns.items()})
    for trace in (
        {k: tuple(c) for k, c in columns.items()},
        {k: list(c) for k, c in columns.items()},
    ):
        run = make_run(load_trace=trace)
        text = run.to_json()
        assert text == _canonical(run)
        assert TestcaseRun.from_json(text) == parsed
    # A table holds floats only: its int and bool twins become floats.
    table = TraceTable(columns, [
        [x if isinstance(x, float) else float(x) for x in column]
        for column in columns.values()
    ])
    longest = max((len(c) for c in columns.values()), default=0)
    for steps in range(longest + 2):
        run = make_run(load_trace=TraceView(table, steps))
        text = run.to_json()
        assert text == _canonical(run)
        assert TestcaseRun.from_json(text) == run


def _old_column(values):
    """How ``from_dict`` parsed a column before it used ``map``."""
    return tuple(float(x) for x in values)


def _bits(samples):
    """Each sample's bit pattern: tells -0.0 from 0.0, and NaN equals
    NaN."""
    return np.array(samples, np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("column", [
    [1.5, -0.0, NaN, 5e-324],
    [1, 2, True],
    ["1.5", "1E-5", "nan", " -2 "],
    "12",
    b"12",
    [None],
    [1.0, None],
    [[1.0]],
    [1.0, "x"],
    5,
    None,
    {"a": 1.0},
    {"1.5": 2.0},
])
def test_from_dict_parses_columns_as_before(column):
    # The same float() calls in the same order: equal tuples, or the
    # same error.
    try:
        want = _old_column(column)
    except (TypeError, ValueError) as exc:
        want = f"bad run record: {exc}"
    for field, key in (("load_trace", "slowdown"), ("last_values", "cpu")):
        data = make_run().to_dict()
        data[field] = {key: column}
        if isinstance(want, str):
            with pytest.raises(SerializationError) as err:
                TestcaseRun.from_dict(data)
            assert str(err.value) == want
            continue
        (got,) = getattr(TestcaseRun.from_dict(data), field).values()
        assert type(got) is tuple and {type(x) for x in got} <= {float}
        assert _bits(got) == _bits(want)
    if column == "12":
        assert want == (1.0, 2.0)


@settings(max_examples=40)
@given(
    offset=st.floats(min_value=0.0, max_value=120.0),
    level=st.floats(min_value=0.0, max_value=10.0),
    task=st.sampled_from(["word", "powerpoint", "ie", "quake", ""]),
    source=st.sampled_from(["simulated", "noise", "hotkey"]),
)
def test_property_roundtrip(offset, level, task, source):
    run = TestcaseRun(
        run_id="rp",
        testcase_id="tc",
        context=RunContext(user_id="u", task=task),
        outcome=RunOutcome.DISCOMFORT,
        end_offset=offset,
        testcase_duration=120.0,
        shapes={Resource.CPU: "ramp"},
        levels_at_end={Resource.CPU: level},
        last_values={Resource.CPU: (level,)},
        feedback=DiscomfortEvent(offset=offset, levels={Resource.CPU: level},
                                 source=source),
    )
    assert TestcaseRun.from_json(run.to_json()) == run
