"""The A/B runner's summary step (benchmarks/perfbench_ab.py), on canned
rows: quartiles per side, the head's wins per metric direction, ties
for neither side, and which runs count as failed."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_ab",
    Path(__file__).resolve().parent.parent / "benchmarks" / "perfbench_ab.py",
)
perfbench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perfbench_ab)

LOWER = {"name": "setup_s", "better": "lower"}
HIGHER = {"name": "items", "better": "higher"}


def rows(base, head, name="setup_s"):
    """One base and one head row per pair; ``None`` is a failed run."""
    out = []
    for pair, values in enumerate(zip(base, head)):
        for side, value in zip(("base", "head"), values):
            metrics = {} if value is None else {name: value}
            out.append({"pair": pair, "side": side, "metrics": metrics})
    return out


def test_quartiles_wins_and_gap():
    base = [0.415, 0.433, 0.452, 0.430, 0.436, 0.399, 0.402, 0.430, 0.414,
            0.425]
    head = [0.261, 0.242, 0.258, 0.261, 0.276, 0.258, 0.262, 0.252, 0.274,
            0.292]
    (s,) = perfbench_ab.summarize(rows(base, head), [LOWER])
    assert s["pairs"] == 10
    assert (s["head_wins"], s["base_wins"]) == (10, 0)
    # Linear interpolation between order statistics, as numpy's default.
    assert s["base"] == pytest.approx((0.41425, 0.4275, 0.43225))
    assert s["head"] == pytest.approx((0.258, 0.261, 0.271))
    assert s["gap"] == pytest.approx(0.261 - 0.4275)
    assert s["base_iqr"] == pytest.approx(0.018)
    (line,) = perfbench_ab.format_summary([s])
    assert "head wins 10/10" in line and line.startswith("setup_s:")


def test_ties_count_for_neither_side():
    (s,) = perfbench_ab.summarize(
        rows([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.5, 4.0]), [LOWER]
    )
    assert (s["head_wins"], s["base_wins"], s["pairs"]) == (1, 1, 4)


def test_higher_is_better():
    (s,) = perfbench_ab.summarize(
        rows([5, 5, 5], [6, 4, 7], name="items"), [HIGHER]
    )
    assert (s["head_wins"], s["base_wins"]) == (2, 1)


def test_pairs_with_a_failed_side_are_left_out():
    (s,) = perfbench_ab.summarize(
        rows([1.0, None, 3.0], [0.5, 0.1, None]), [LOWER]
    )
    assert (s["pairs"], s["head_wins"]) == (1, 1)
    assert s["base"] == (1.0, 1.0, 1.0)
    assert perfbench_ab.summarize(rows([None], [None]), [LOWER]) == []


def _line(**result):
    return "progress\n" + json.dumps(result) + "\n"


@pytest.mark.parametrize("returncode, stdout, failed", [
    (0, _line(correct=True, failed=0, metrics={"op_p50_ms": {"value": 2.0}}),
     False),
    (0, _line(correct=False, failed=0, metrics={}), True),
    (0, _line(correct=True, failed=1, metrics={}), True),
    (0, _line(correct=True, metrics={}), True),
    (1, _line(correct=True, failed=0, metrics={}), True),
    (2, "", True),
    (0, "not json\n", True),
])
def test_parse_run(returncode, stdout, failed):
    metrics, error = perfbench_ab.parse_run(returncode, stdout)
    assert (error is not None) == failed
    if not failed:
        assert metrics == {"op_p50_ms": 2.0}
