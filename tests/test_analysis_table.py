"""The observation table behind every figure, against loop references.

Every analysis reads runs through one :class:`Observations` table.  The
references below are the per-analysis loops the table replaced, kept
verbatim so the table's selections can be checked against them on runs
built to hit every rule: aborted, blank and multi-resource runs, missing
ratings, a task outside the study's four and shapes other than ramps.
``full_report`` is also pinned byte for byte on two studies.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import paperdata
from repro.analysis.cdf import Observations, observations_from_runs, per_cell_cdf
from repro.analysis.dynamics import ramp_vs_step
from repro.analysis.factors import skill_level_differences
from repro.analysis.fullreport import full_report
from repro.analysis.report import (
    BreakdownRow,
    CellMetrics,
    breakdown_table,
    cell_metrics,
    metric_tables,
)
from repro.core.feedback import DiscomfortEvent, RunOutcome
from repro.core.metrics import DiscomfortCDF, DiscomfortObservation
from repro.core.resources import Resource
from repro.core.run import RunContext, TestcaseRun
from repro.errors import InsufficientDataError
from repro.study import ControlledStudyConfig, run_controlled_study
from repro.study.combination import run_combination_study
from repro.users.profile import RATING_CATEGORIES, SkillLevel
from repro.util.stats import unpaired_t_test

_RESOURCES = (Resource.CPU, Resource.MEMORY, Resource.DISK)
_COMPARISONS = (
    (SkillLevel.POWER, SkillLevel.TYPICAL),
    (SkillLevel.TYPICAL, SkillLevel.BEGINNER),
)

# -- the loops the table replaced -------------------------------------------


def ref_is_blank(run):
    return all(shape == "blank" for shape in run.shapes.values())


def ref_primary_resource(run):
    active = [r for r, s in run.shapes.items() if s != "blank"]
    return active[0] if len(active) == 1 else None


def ref_observations(runs, *, resource=None, task=None, shapes=("ramp",)):
    observations = []
    for run in runs:
        if run.outcome.value == "aborted" or ref_is_blank(run):
            continue
        primary = ref_primary_resource(run)
        if primary is None:
            continue
        if resource is not None and primary is not resource:
            continue
        if task is not None and run.context.task != task:
            continue
        if shapes is not None and run.shapes.get(primary, "") not in shapes:
            continue
        observations.append(DiscomfortObservation.from_run(run, primary))
    return observations


def ref_breakdown_rows(runs):
    rows = {}
    tasks = sorted({run.context.task for run in runs}) or [""]
    ordered = [t for t in paperdata.STUDY_TASKS if t in tasks]
    ordered += [t for t in tasks if t not in ordered]
    for task in ["total", *ordered]:
        selected = (
            runs if task == "total" else [r for r in runs if r.context.task == task]
        )
        non_blank = [r for r in selected if not ref_is_blank(r)]
        blank = [r for r in selected if ref_is_blank(r)]
        rows[task] = BreakdownRow(
            task=task,
            nonblank_discomforted=sum(r.discomforted for r in non_blank),
            nonblank_exhausted=sum(r.exhausted for r in non_blank),
            blank_discomforted=sum(r.discomforted for r in blank),
            blank_exhausted=sum(r.exhausted for r in blank),
        )
    return rows


def ref_cell_metrics(runs, task, resource, shapes, percentile=0.05):
    obs = ref_observations(runs, resource=resource, task=task, shapes=shapes)
    label = task if task is not None else "total"
    if not obs:
        return CellMetrics(label, resource, None, 0.0, None, None)
    cdf = DiscomfortCDF(obs)
    try:
        c_05 = cdf.c_percentile(percentile)
    except InsufficientDataError:
        c_05 = None
    try:
        c_a = cdf.c_mean_ci()
    except InsufficientDataError:
        c_a = None
    return CellMetrics(label, resource, cdf, cdf.f_d(), c_05, c_a)


def ref_group_levels(runs, task, resource, category, level, shapes):
    selected = [
        run
        for run in runs
        if run.context.extra.get(f"rating_{category}", "") == level.value
    ]
    obs = ref_observations(selected, resource=resource, task=task, shapes=shapes)
    return np.array([o.level for o in obs if not o.censored], dtype=float)


def ref_skill_tests(runs, tasks, shapes):
    results = []
    for task in tasks:
        for resource in _RESOURCES:
            for category in RATING_CATEGORIES:
                if category not in ("pc", "windows", task):
                    continue
                for high, low in _COMPARISONS:
                    a = ref_group_levels(runs, task, resource, category, high, shapes)
                    b = ref_group_levels(runs, task, resource, category, low, shapes)
                    try:
                        test = unpaired_t_test(a, b)
                    except InsufficientDataError:
                        continue
                    results.append((task, resource, category, high, low, test))
    results.sort(key=lambda r: r[-1].p_value)
    return results


# -- hand-built runs ---------------------------------------------------------


def make_run(index, rng, *, task, shapes, outcome, ratings, user=None):
    levels = {r: float(rng.uniform(0.05, 2.0)) for r in shapes}
    last_values = {r: (levels[r] * 0.9, levels[r]) for r in shapes}
    discomfort = outcome is RunOutcome.DISCOMFORT
    return TestcaseRun(
        run_id=f"run-{index:04d}",
        testcase_id=f"{task}-tc",
        context=RunContext(
            user_id=user or f"u{int(rng.integers(0, 12)):02d}",
            task=task,
            extra=ratings,
        ),
        outcome=outcome,
        end_offset=60.0 if discomfort else 120.0,
        testcase_duration=120.0,
        shapes=shapes,
        levels_at_end=levels,
        last_values=last_values,
        feedback=DiscomfortEvent(offset=60.0, levels=levels) if discomfort else None,
    )


@pytest.fixture(scope="module")
def mixed_runs():
    rng = np.random.default_rng(2004)
    tasks = (*paperdata.STUDY_TASKS, "emacs")
    shape_names = ("ramp", "ramp", "step", "sine", "blank")
    outcomes = (
        RunOutcome.DISCOMFORT, RunOutcome.DISCOMFORT, RunOutcome.EXHAUSTED,
        RunOutcome.ABORTED,
    )
    levels = [s.value for s in SkillLevel]
    runs = []
    for index in range(1500):
        task = tasks[int(rng.integers(0, len(tasks)))]
        n_resources = 1 if rng.random() < 0.85 else int(rng.integers(0, 3))
        picked = rng.permutation(len(_RESOURCES))[:max(n_resources, 1)]
        shapes = {
            _RESOURCES[i]: shape_names[int(rng.integers(0, len(shape_names)))]
            for i in picked
        }
        if n_resources == 0:
            shapes = {}
        ratings = {
            f"rating_{c}": levels[int(rng.integers(0, 3))]
            for c in RATING_CATEGORIES
            if rng.random() < 0.8
        }
        runs.append(
            make_run(
                index, rng, task=task, shapes=shapes,
                outcome=outcomes[int(rng.integers(0, len(outcomes)))],
                ratings=ratings,
            )
        )
    # Multi-resource runs as the combination study makes them (both
    # resources ramped, no ratings in the context).
    combo = run_combination_study("word", (Resource.CPU, Resource.MEMORY), 3, 5)
    runs += combo.runs
    kinds = {
        "aborted": any(r.outcome is RunOutcome.ABORTED for r in runs),
        "blank": any(r.shapes and ref_is_blank(r) for r in runs),
        "no shapes": any(not r.shapes for r in runs),
        "multi": any(len(r.exercised) > 1 for r in combo.runs),
        "no ratings": any(not r.context.extra.get("rating_pc") for r in runs),
        "other task": any(r.context.task == "emacs" for r in runs),
        "other shapes": any("sine" in r.shapes.values() for r in runs),
    }
    assert all(kinds.values()), kinds
    return runs


class TestExercised:
    def test_exercised_is_the_non_blank_resources_in_shape_order(self):
        rng = np.random.default_rng(1)
        run = make_run(
            0, rng, task="word",
            shapes={
                Resource.DISK: "ramp", Resource.CPU: "blank",
                Resource.MEMORY: "step",
            },
            outcome=RunOutcome.EXHAUSTED, ratings={},
        )
        assert run.exercised == (Resource.DISK, Resource.MEMORY)
        blank = make_run(
            1, rng, task="word", shapes={Resource.CPU: "blank"},
            outcome=RunOutcome.EXHAUSTED, ratings={},
        )
        assert blank.exercised == ()


class TestAgainstLoops:
    @pytest.mark.parametrize("shapes", [("ramp",), ("step", "sine"), None])
    def test_observations(self, mixed_runs, shapes):
        table = Observations(mixed_runs)
        assert len(table) == len(mixed_runs)
        tasks = (None, *paperdata.STUDY_TASKS, "emacs", "absent")
        for resource in (None, *_RESOURCES, Resource.NETWORK):
            for task in tasks:
                expected = ref_observations(
                    mixed_runs, resource=resource, task=task, shapes=shapes
                )
                for source in (mixed_runs, table):
                    got = observations_from_runs(
                        source, resource=resource, task=task, shapes=shapes
                    )
                    assert got == expected

    @pytest.mark.parametrize("shapes", [("ramp",), ("sine",), None])
    def test_cell_metrics(self, mixed_runs, shapes):
        table = Observations(mixed_runs)
        for resource in (*_RESOURCES, Resource.NETWORK):
            for task in (None, *paperdata.STUDY_TASKS, "emacs"):
                got = cell_metrics(table, task, resource, shapes)
                expected = ref_cell_metrics(mixed_runs, task, resource, shapes)
                assert got.task == expected.task
                assert got.resource is expected.resource
                assert (got.f_d, got.c_05, got.c_a) == (
                    expected.f_d, expected.c_05, expected.c_a
                )
                if expected.cdf is None:
                    assert got.cdf is None
                else:
                    assert got.cdf.observations == expected.cdf.observations

    def test_breakdown_table(self, mixed_runs):
        rows, rendered = breakdown_table(mixed_runs)
        assert rows == ref_breakdown_rows(mixed_runs)
        assert list(rows) == list(ref_breakdown_rows(mixed_runs))
        assert all(
            type(v) is int for row in rows.values() for v in vars(row).values()
            if not isinstance(v, str)
        )
        assert breakdown_table(Observations(mixed_runs))[1].render() == (
            rendered.render()
        )

    def test_breakdown_of_no_runs(self):
        rows, _ = breakdown_table([])
        assert rows == ref_breakdown_rows([])

    @pytest.mark.parametrize("shapes", [("ramp",), None])
    def test_skill_level_differences(self, mixed_runs, shapes):
        tasks = (*paperdata.STUDY_TASKS, "emacs")
        got = skill_level_differences(
            mixed_runs, tasks=tasks, shapes=shapes, significant_only=False
        )
        expected = ref_skill_tests(mixed_runs, tasks, shapes)
        assert len(got) > 20
        assert repr(
            [(d.task, d.resource, d.category, d.group_high, d.group_low, d.test)
             for d in got]
        ) == repr(expected)


class TestReduction:
    """A cell reduces only its own runs, and a table each run once, so a
    table built for one cell costs no more than the loops it replaced."""

    @pytest.fixture
    def reduced(self, monkeypatch):
        run_ids = []
        from_run = DiscomfortObservation.from_run

        def counting(run, resource=None):
            run_ids.append(run.run_id)
            return from_run(run, resource)

        monkeypatch.setattr(DiscomfortObservation, "from_run", counting)
        return run_ids

    def test_a_cell_reduces_only_its_runs(self, mixed_runs, reduced):
        cdf = per_cell_cdf(mixed_runs, "word", Resource.CPU)
        assert sorted(reduced) == sorted(o.run_id for o in cdf.observations)

    def test_a_table_reduces_each_run_once(self, mixed_runs, reduced):
        expected = ref_observations(mixed_runs, shapes=None)
        reduced.clear()
        table = Observations(mixed_runs)
        assert observations_from_runs(table, shapes=None) == expected
        observations_from_runs(table, resource=Resource.CPU)
        metric_tables(table)
        skill_level_differences(table, shapes=None)
        assert sorted(reduced) == sorted(o.run_id for o in expected)


class TestRampVsStep:
    @staticmethod
    def pair(user, *, step_outcome=RunOutcome.DISCOMFORT,
             step_shapes=None, index=0):
        rng = np.random.default_rng(index)
        ramp = make_run(
            2 * index, rng, task="powerpoint", shapes={Resource.CPU: "ramp"},
            outcome=RunOutcome.DISCOMFORT, ratings={}, user=user,
        )
        step = make_run(
            2 * index + 1, rng, task="powerpoint",
            shapes=step_shapes or {Resource.CPU: "step"},
            outcome=step_outcome, ratings={}, user=user,
        )
        return [ramp, step]

    def test_pairs_only_runs_with_an_observation(self):
        runs = []
        for i, user in enumerate(("a", "b", "c")):
            runs += self.pair(user, index=i)
        # An aborted step and a step loading two resources at once say
        # nothing about the user's CPU comfort, as in every CDF.
        runs += self.pair("d", step_outcome=RunOutcome.ABORTED, index=3)
        runs += self.pair(
            "e", index=4,
            step_shapes={Resource.CPU: "step", Resource.MEMORY: "step"},
        )
        result = ramp_vs_step(runs, "powerpoint", Resource.CPU)
        assert result.n_pairs == 3
        assert ramp_vs_step(Observations(runs), "powerpoint", Resource.CPU) == (
            result
        )

    def test_matches_the_loop_over_observed_runs(self, mixed_runs):
        observed = [
            run for run in mixed_runs
            if run.outcome is not RunOutcome.ABORTED
            and ref_primary_resource(run) is not None
        ]
        table = Observations(mixed_runs)
        for task in paperdata.STUDY_TASKS:
            for resource in _RESOURCES:
                ramp, step = {}, {}
                for run in observed:
                    if run.context.task != task:
                        continue
                    shape = run.shapes.get(resource, "")
                    tolerated = (
                        run.discomfort_level(resource) if run.discomforted
                        else run.max_level(resource)
                    )
                    if shape == "ramp":
                        ramp[run.context.user_id] = tolerated
                    elif shape == "step":
                        step[run.context.user_id] = tolerated
                users = sorted(set(ramp) & set(step))
                if len(users) < 2:
                    with pytest.raises(InsufficientDataError):
                        ramp_vs_step(table, task, resource)
                    continue
                result = ramp_vs_step(table, task, resource)
                ramp_levels = np.array([ramp[u] for u in users])
                step_levels = np.array([step[u] for u in users])
                assert result.n_pairs == len(users)
                assert result.mean_difference == float(
                    np.mean(ramp_levels - step_levels)
                )


class TestFullReportPins:
    """``full_report`` bytes, recorded before the table replaced the
    per-analysis loops (Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  The
    p-values and t intervals come from scipy, so a numpy or scipy
    release may need these re-recorded at the parent commit of the
    change that meets it."""

    @staticmethod
    def digest(runs) -> str:
        return hashlib.sha256(full_report(runs).encode()).hexdigest()

    def test_golden_study(self, controlled_study):
        assert self.digest(controlled_study.runs) == (
            "44c859188ca0cc4e28f46c913ebbceb2ea8bd844334535574a83fb555966a2e1"
        )

    def test_300_user_batch_study(self):
        result = run_controlled_study(
            ControlledStudyConfig(n_users=300, seed=2004, engine="batch")
        )
        assert self.digest(result.runs) == (
            "53ff448fb7a669ba31ece6f713bc0c0a4b93b2e09cc2d20e91ee63d750c0e96f"
        )
        assert self.digest(Observations(result.runs)) == self.digest(result.runs)

    def test_metric_tables_accept_the_table(self, controlled_study):
        table = Observations(controlled_study.runs)
        _, from_runs = metric_tables(controlled_study.runs)
        _, from_table = metric_tables(table)
        assert {k: t.render() for k, t in from_runs.items()} == {
            k: t.render() for k, t in from_table.items()
        }
