"""Testcase run results (paper §2.3).

A *run* is "the execution of a testcase during a specific task by a specific
user".  The client records whether the run ended in discomfort or
exhaustion, the time offset of that event, the last five contention values
of each exercise function, load measurements for the whole run, and
contextual information (foreground task, client, machine).  The result is
stored "in text-based form for later communication back to the server";
here that form is one JSON document per run.
"""

from __future__ import annotations

import json
import math
import uuid
from collections.abc import Mapping
from dataclasses import dataclass, field
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _jstr_raw

import numpy as np

from repro.core.feedback import DiscomfortEvent, RunOutcome
from repro.core.resources import Resource
from repro.errors import SerializationError, ValidationError

__all__ = ["RunContext", "TestcaseRun", "TraceTable", "TraceView"]

# ---------------------------------------------------------------------------
# Canonical JSON.
#
# A record's text is ``json.dumps(run.to_dict(), sort_keys=True)``: every
# digest, golden pin and store line is defined against it.
# ``TestcaseRun.to_json`` writes the same bytes without building that
# dict.  Scalars and short strings are rendered directly, and the small
# mappings go through one C encoder configured as ``json.dumps``
# configures its own.  A plain dict keyed by ``str`` or ``Resource`` is
# handed over as it is, since the encoder writes ``str(key)`` for such
# keys; anything else is first copied into the dict ``to_dict`` would
# build.  The load trace -- ~19 KB of floats, nearly all of a simulated
# record's text -- is the costly part.  Every run of a simulated
# (machine, task, testcase) cell replays the same level series, so its
# trace is a prefix of the cell's full-length traces: the engines hand
# each run a ``TraceView`` of the cell's ``TraceTable``, the table
# renders each column once, and each run's trace is cut from that text
# and joined into the record's text with everything else.  Nothing is
# cached per record, so a collected record leaves nothing behind.
# ---------------------------------------------------------------------------

#: ``json.dumps(obj, sort_keys=True)`` builds an encoder exactly like
#: this one for every call.
_dumps = json.JSONEncoder(sort_keys=True)
#: The C encoder ``_dumps.encode`` would build, configured the same but
#: built once.  Its markers (the containers it is inside, for the
#: circular-reference check) are empty between calls; :func:`_render`
#: keeps them so.  It returns its text in chunks: up to CPython 3.11, a
#: list that long output splits every 100,000 accumulated pieces; from
#: 3.12 on, a 1-tuple.
_markers: dict = {}
_c_encode = c_make_encoder(
    _markers, _dumps.default, _jstr_raw, _dumps.indent,
    _dumps.key_separator, _dumps.item_separator, _dumps.sort_keys,
    _dumps.skipkeys, _dumps.allow_nan,
)

#: Key types for which ``str(key)`` is the text the encoder writes.
_NAME_KEYS = frozenset((str, Resource))
#: Value types that render as ``list(value)`` does.
_SEQUENCES = frozenset((tuple, list))


def _render(obj) -> str:
    """``json.dumps(obj, sort_keys=True)`` on the shared C encoder."""
    try:
        return "".join(_c_encode(obj, 0))
    except BaseException:
        # A failed call leaves the containers it was inside marked.
        _markers.clear()
        raise


def _by_name(mapping: Mapping) -> Mapping:
    """``{str(k): v for k, v in mapping.items()}``, or ``mapping`` itself
    when it is a plain dict the encoder renders the same."""
    if type(mapping) is dict and _NAME_KEYS.issuperset(map(type, mapping)):
        return mapping
    return {str(k): v for k, v in mapping.items()}


def _lists_by_name(mapping: Mapping) -> Mapping:
    """``{str(k): list(v) for k, v in mapping.items()}``, or ``mapping``
    itself when it is a plain dict the encoder renders the same."""
    if (
        type(mapping) is dict
        and _NAME_KEYS.issuperset(map(type, mapping))
        and _SEQUENCES.issuperset(map(type, mapping.values()))
    ):
        return mapping
    return {str(k): list(v) for k, v in mapping.items()}


def _jnum(x) -> str:
    # json.dumps renders finite floats via float.__repr__; the special
    # values and any non-float number types take the generic encoder.
    if type(x) is float and math.isfinite(x):
        return float.__repr__(x)
    return _render(x)


def _column_json(column: tuple) -> tuple[str, np.ndarray]:
    """``column``'s JSON array text and where each separator between its
    elements starts: the JSON of its first ``n`` elements is
    ``text[:seps[n - 1]] + "]"`` for ``0 < n < len(column)``."""
    text = _render(column)
    # The text is ASCII, so its bytes are its characters.  Floats never
    # render with a comma, so one pass over the bytes finds the
    # separators.  A column whose element text holds commas keeps only
    # the ", " among them; if those are still too many, some element's
    # text holds the separator itself: render element by element.
    data = np.frombuffer(text.encode(), np.uint8)
    seps = np.flatnonzero(data == 44)  # ","
    wanted = max(len(column) - 1, 0)
    if len(seps) != wanted:
        seps = seps[data[seps + 1] == 32]  # " "
    if len(seps) != wanted:
        items = [_render(x) for x in column]
        text = "[" + ", ".join(items) + "]"
        seps = np.cumsum([len(item) + 2 for item in items[:-1]],
                         dtype=np.int64) - 1
    return text, seps


class TraceTable:
    """Full-length load traces that the runs of one simulated cell share.

    ``names`` and ``columns`` run in parallel: metric name -> float
    samples.  A run that stopped after ``steps`` samples carries
    ``TraceView(table, steps)``, every column cut at ``steps``.  The
    first :meth:`pieces` call renders each column's JSON once, with the
    offset of every separator, so the JSON of any prefix is a slice of
    that text.  A table pickles as ``(names, columns)``; its text is
    rebuilt in whichever process renders it.
    """

    __slots__ = ("names", "columns", "_index", "_json")

    def __init__(self, names, columns):
        self.names = tuple(names)
        self.columns = tuple(tuple(column) for column in columns)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names) or len(self.columns) != len(
            self.names
        ):
            raise ValidationError(
                "a trace table needs one column per distinct name"
            )
        self._json: list[tuple[str, str, np.ndarray]] | None = None

    def __reduce__(self):
        return (TraceTable, (self.names, self.columns))

    def pieces(self, steps: int, out: list[str]) -> None:
        """Append to ``out`` the text of ``json.dumps({name:
        list(column[:steps])}, sort_keys=True)``, in pieces."""
        rendered = self._json
        if rendered is None:
            rendered = self._json = [
                (("{" if i == 0 else ", ") + _render(name) + ": ",
                 *_column_json(self.columns[self._index[name]]))
                for i, name in enumerate(sorted(self.names))
            ]
        if not rendered:
            out.append("{}")
            return
        for head, text, seps in rendered:
            if steps > len(seps):
                out += (head, text)
            elif steps > 0:
                out += (head, text[: seps[steps - 1]], "]")
            else:
                out += (head, "[]")
        out.append("}")


class TraceView(Mapping):
    """A simulated run's ``load_trace``: its cell's table cut at ``steps``.

    Read-only and shared: the engines hand one view to every run of a
    cell that stopped at the same step, so callers must not try to
    mutate it.  It compares equal to any mapping with the same metrics
    and samples, a plain ``dict`` included, and pickles as ``(table,
    steps)``, so records that share a table pickle it once.
    """

    __slots__ = ("table", "steps")

    def __init__(self, table: TraceTable, steps: int):
        if steps < 0:
            raise ValidationError(f"trace view steps {steps} < 0")
        self.table = table
        self.steps = steps

    def __getitem__(self, name: str) -> tuple[float, ...]:
        table = self.table
        return table.columns[table._index[name]][: self.steps]

    def __iter__(self):
        return iter(self.table.names)

    def __len__(self) -> int:
        return len(self.table.names)

    def __contains__(self, name) -> bool:
        return name in self.table._index

    def __reduce__(self):
        return (TraceView, (self.table, self.steps))

    def __repr__(self) -> str:
        return f"TraceView({dict(self)!r})"


@dataclass(frozen=True)
class RunContext:
    """Contextual information captured with a run."""

    #: Stable identifier of the user performing the foreground task.
    user_id: str
    #: Foreground task name (``"word"``, ``"powerpoint"``, ``"ie"``,
    #: ``"quake"``) or ``""`` for uncontrolled (Internet-study) operation.
    task: str = ""
    #: Client GUID assigned at registration, if any.
    client_id: str = ""
    #: Machine snapshot identifier, if any.
    machine_id: str = ""
    #: Wall-clock start of the run, seconds since the epoch (study time).
    started_at: float = 0.0
    #: Free-form extras (foreground process list, study phase, ...).
    extra: Mapping[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "user_id": self.user_id,
            "task": self.task,
            "client_id": self.client_id,
            "machine_id": self.machine_id,
            "started_at": self.started_at,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunContext":
        return cls(
            user_id=str(data.get("user_id", "")),
            task=str(data.get("task", "")),
            client_id=str(data.get("client_id", "")),
            machine_id=str(data.get("machine_id", "")),
            started_at=float(data.get("started_at", 0.0)),
            extra={str(k): str(v) for k, v in dict(data.get("extra", {})).items()},
        )


@dataclass(frozen=True)
class TestcaseRun:
    """The complete result record of one testcase run."""

    run_id: str
    testcase_id: str
    context: RunContext
    outcome: RunOutcome
    #: Seconds into the testcase at which the run ended (feedback offset for
    #: DISCOMFORT, testcase duration for EXHAUSTED).
    end_offset: float
    #: Full duration the testcase would have run.
    testcase_duration: float
    #: Shape tag of each exercised function (``ramp``/``step``/``blank``...).
    shapes: Mapping[Resource, str] = field(default_factory=dict)
    #: Contention per resource at the moment the run ended.
    levels_at_end: Mapping[Resource, float] = field(default_factory=dict)
    #: "The last five contention values used in each exercise function at
    #: the point of user feedback" (§2.3).
    last_values: Mapping[Resource, tuple[float, ...]] = field(default_factory=dict)
    #: Feedback event detail, present iff outcome is DISCOMFORT.
    feedback: DiscomfortEvent | None = None
    #: Sampled system load during the run: metric name -> samples.
    load_trace: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    #: Sample rate of the load trace, Hz.
    load_trace_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.end_offset < 0 or self.end_offset > self.testcase_duration + 1e-6:
            raise ValidationError(
                f"end_offset {self.end_offset} outside [0, "
                f"{self.testcase_duration}]"
            )
        if (self.outcome is RunOutcome.DISCOMFORT) != (self.feedback is not None):
            raise ValidationError(
                "feedback must be present exactly when outcome is DISCOMFORT"
            )

    # -- accessors --------------------------------------------------------

    @property
    def discomforted(self) -> bool:
        return self.outcome is RunOutcome.DISCOMFORT

    @property
    def exhausted(self) -> bool:
        return self.outcome is RunOutcome.EXHAUSTED

    @property
    def exercised(self) -> tuple[Resource, ...]:
        """The resources the run loaded: those whose shape is not
        ``blank``, in shape order.  Empty for a blank run."""
        return tuple([r for r, s in self.shapes.items() if s != "blank"])

    def discomfort_level(self, resource: Resource) -> float:
        """Contention on ``resource`` when discomfort was expressed.

        Raises :class:`ValidationError` for non-discomfort runs.
        """
        if not self.discomforted:
            raise ValidationError(
                f"run {self.run_id} ended in {self.outcome}, not discomfort"
            )
        return float(self.levels_at_end.get(resource, 0.0))

    def max_level(self, resource: Resource) -> float:
        """Highest contention the run applied to ``resource`` (for
        censoring exhausted runs in CDFs)."""
        values = self.last_values.get(resource)
        level = float(self.levels_at_end.get(resource, 0.0))
        if values:
            level = max(level, max(values))
        return level

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "testcase_id": self.testcase_id,
            "context": self.context.to_dict(),
            "outcome": str(self.outcome),
            "end_offset": self.end_offset,
            "testcase_duration": self.testcase_duration,
            "shapes": {str(r): s for r, s in self.shapes.items()},
            "levels_at_end": {str(r): v for r, v in self.levels_at_end.items()},
            "last_values": {
                str(r): list(v) for r, v in self.last_values.items()
            },
            "feedback": (
                None
                if self.feedback is None
                else {
                    "offset": self.feedback.offset,
                    "levels": {
                        str(r): v for r, v in self.feedback.levels.items()
                    },
                    "source": self.feedback.source,
                }
            ),
            "load_trace": {k: list(v) for k, v in self.load_trace.items()},
            "load_trace_rate": self.load_trace_rate,
        }

    def to_json(self) -> str:
        """Canonical JSON form: ``json.dumps(to_dict(), sort_keys=True)``.

        Assembled field by field and joined once (see the notes above
        ``TraceTable``); byte-equality with the ``json.dumps`` form is
        pinned by the serialization tests.
        """
        ctx = self.context
        extra = ctx.extra
        feedback = self.feedback
        trace = self.load_trace
        pieces = [
            '{"context": {"client_id": ', _jstr_raw(ctx.client_id),
            ', "extra": ',
            _render(extra if type(extra) is dict else dict(extra)),
            ', "machine_id": ', _jstr_raw(ctx.machine_id),
            ', "started_at": ', _jnum(ctx.started_at),
            ', "task": ', _jstr_raw(ctx.task),
            ', "user_id": ', _jstr_raw(ctx.user_id),
            '}, "end_offset": ', _jnum(self.end_offset),
            ', "feedback": ',
            "null" if feedback is None else _render({
                "offset": feedback.offset,
                "levels": _by_name(feedback.levels),
                "source": feedback.source,
            }),
            ', "last_values": ', _render(_lists_by_name(self.last_values)),
            ', "levels_at_end": ', _render(_by_name(self.levels_at_end)),
            ', "load_trace": ',
        ]
        if isinstance(trace, TraceView):
            trace.table.pieces(trace.steps, pieces)
        elif type(trace) is dict and _SEQUENCES.issuperset(
            map(type, trace.values())
        ):
            pieces.append(_render(trace))
        else:
            pieces.append(_render({k: list(v) for k, v in trace.items()}))
        pieces += (
            ', "load_trace_rate": ', _jnum(self.load_trace_rate),
            ', "outcome": ', _jstr_raw(str(self.outcome)),
            ', "run_id": ', _jstr_raw(self.run_id),
            ', "shapes": ', _render(_by_name(self.shapes)),
            ', "testcase_duration": ', _jnum(self.testcase_duration),
            ', "testcase_id": ', _jstr_raw(self.testcase_id),
            "}",
        )
        return "".join(pieces)

    @classmethod
    def from_dict(cls, data: Mapping) -> "TestcaseRun":
        try:
            feedback = None
            fb = data.get("feedback")
            if fb is not None:
                feedback = DiscomfortEvent(
                    offset=float(fb["offset"]),
                    levels={
                        Resource.parse(r): float(v)
                        for r, v in fb.get("levels", {}).items()
                    },
                    source=str(fb.get("source", "unknown")),
                )
            return cls(
                run_id=str(data["run_id"]),
                testcase_id=str(data["testcase_id"]),
                context=RunContext.from_dict(data.get("context", {})),
                outcome=RunOutcome.parse(data["outcome"]),
                end_offset=float(data["end_offset"]),
                testcase_duration=float(data["testcase_duration"]),
                shapes={
                    Resource.parse(r): str(s)
                    for r, s in data.get("shapes", {}).items()
                },
                levels_at_end={
                    Resource.parse(r): float(v)
                    for r, v in data.get("levels_at_end", {}).items()
                },
                last_values={
                    Resource.parse(r): tuple(float(x) for x in v)
                    for r, v in data.get("last_values", {}).items()
                },
                feedback=feedback,
                load_trace={
                    str(k): tuple(float(x) for x in v)
                    for k, v in data.get("load_trace", {}).items()
                },
                load_trace_rate=float(data.get("load_trace_rate", 1.0)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"bad run record: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "TestcaseRun":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"bad run JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SerializationError(
                f"bad run JSON: expected an object, got {type(data).__name__}"
            )
        return cls.from_dict(data)

    @staticmethod
    def new_run_id(rng: np.random.Generator | None = None) -> str:
        """A fresh globally unique run identifier."""
        if rng is None:
            return uuid.uuid4().hex
        return bytes(rng.integers(0, 256, size=16, dtype=np.uint8)).hex()
