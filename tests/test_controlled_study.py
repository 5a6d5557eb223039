"""Tests for the controlled study driver (protocol, determinism)."""

import itertools

import numpy as np
import pytest

from repro import paperdata
from repro.errors import StudyError
from repro.stores import ResultStore
from repro.study import (
    ControlledStudyConfig,
    StudyCheckpoint,
    run_controlled_study,
    run_sharded_study,
)
from repro.study.controlled import _RATING_KEYS
from repro.users.profile import RATING_CATEGORIES, SkillLevel, UserProfile


class TestProtocol:
    def test_run_counts(self, small_study):
        # 6 users x 4 tasks x 8 testcases.
        assert len(small_study) == 6 * 4 * 8

    def test_tasks_in_order_per_user(self, small_study):
        for profile in small_study.profiles:
            runs = small_study.runs_for(user_id=profile.user_id)
            tasks = [r.context.task for r in runs]
            boundaries = [tasks.index(t) for t in paperdata.STUDY_TASKS]
            assert boundaries == sorted(boundaries)
            # Within a user, started_at strictly increases.
            starts = [r.context.started_at for r in runs]
            assert starts == sorted(starts)
            assert starts[0] >= 20 * 60  # preamble first

    def test_testcase_order_randomized_between_users(self, small_study):
        orders = set()
        for profile in small_study.profiles:
            runs = small_study.runs_for(user_id=profile.user_id, task="word")
            orders.add(tuple(r.testcase_id for r in runs))
        assert len(orders) > 1

    def test_each_user_runs_every_testcase(self, small_study):
        for profile in small_study.profiles:
            for task in paperdata.STUDY_TASKS:
                runs = small_study.runs_for(user_id=profile.user_id, task=task)
                assert len(runs) == 8
                assert len({r.testcase_id for r in runs}) == 8

    def test_ratings_recorded_in_context(self, small_study):
        run = small_study.runs[0]
        profile = small_study.profile_for(run.context.user_id)
        for category, level in profile.questionnaire().items():
            assert run.context.extra[f"rating_{category}"] == level

    def test_machine_recorded(self, small_study):
        assert all(r.context.machine_id == "dell-gx270" for r in small_study)

    @pytest.mark.parametrize("engine", ["analytic", "batch"])
    def test_runs_of_a_user_share_one_extra(self, engine):
        # One context extra per user, whose rating keys are the shared
        # key strings: what keeps pickled shard batches small.
        result = run_controlled_study(
            ControlledStudyConfig(n_users=3, seed=5, engine=engine)
        )
        keys = ["study", *(key for key, _ in _RATING_KEYS)]
        extras = {}
        for run in result.runs:
            extra = extras.setdefault(run.context.user_id, run.context.extra)
            assert run.context.extra is extra
        assert len(extras) == 3
        for extra in extras.values():
            assert list(extra) == keys
            assert all(a is b for a, b in zip(extra, keys))


class TestQuestionnaire:
    def test_equals_the_rating_of_every_category(self):
        # Every combination of the three levels and a missing rating.
        for levels in itertools.product(
            (None, *SkillLevel), repeat=len(RATING_CATEGORIES)
        ):
            profile = UserProfile("q", ratings={
                cat: level
                for cat, level in zip(RATING_CATEGORIES, levels)
                if level is not None
            })
            assert profile.questionnaire() == {
                cat: str(profile.rating(cat)) for cat in RATING_CATEGORIES
            }


class TestDeterminism:
    def test_same_seed_same_study(self):
        a = run_controlled_study(ControlledStudyConfig(n_users=3, seed=17))
        b = run_controlled_study(ControlledStudyConfig(n_users=3, seed=17))
        assert [r.run_id for r in a.runs] == [r.run_id for r in b.runs]
        assert [r.outcome for r in a.runs] == [r.outcome for r in b.runs]
        assert [r.end_offset for r in a.runs] == [r.end_offset for r in b.runs]

    def test_different_seed_differs(self):
        a = run_controlled_study(ControlledStudyConfig(n_users=3, seed=17))
        b = run_controlled_study(ControlledStudyConfig(n_users=3, seed=18))
        assert [r.outcome for r in a.runs] != [r.outcome for r in b.runs]


class TestResultAccess:
    def test_filters(self, small_study):
        word = small_study.runs_for(task="word")
        assert all(r.context.task == "word" for r in word)
        blanks = small_study.runs_for(blank=True)
        assert len(blanks) == 6 * 4 * 2
        non_blanks = small_study.runs_for(blank=False)
        assert len(blanks) + len(non_blanks) == len(small_study)

    def test_profile_lookup(self, small_study):
        with pytest.raises(StudyError):
            small_study.profile_for("ghost")

    def test_config_validation(self):
        with pytest.raises(StudyError):
            ControlledStudyConfig(n_users=0)
        with pytest.raises(StudyError):
            ControlledStudyConfig(tasks=())


class TestSeed:
    """A config holds its seed as a non-negative ``int``, which every
    engine derives its streams from and a checkpoint manifest records."""

    @pytest.mark.parametrize(
        "seed", [-1, 1.5, "7", np.random.SeedSequence(7)],
        ids=["negative", "float", "str", "SeedSequence"],
    )
    def test_only_non_negative_integers(self, seed):
        with pytest.raises(StudyError, match="non-negative integer"):
            ControlledStudyConfig(seed=seed)

    def test_numpy_integer_stored_as_int(self):
        config = ControlledStudyConfig(seed=np.int64(7))
        assert config.seed == 7 and type(config.seed) is int

    def test_numpy_integer_seeds_the_same_batch_study(self):
        lines = [
            [run.to_json() for run in run_controlled_study(
                ControlledStudyConfig(n_users=3, seed=seed, engine="batch")
            ).runs]
            for seed in (np.int64(7), 7)
        ]
        assert lines[0] == lines[1]

    def test_checkpointed_study_seeded_by_numpy_integer(self, tmp_path):
        config = ControlledStudyConfig(
            n_users=2, seed=np.int64(5), tasks=("word",)
        )
        store = ResultStore(tmp_path)
        run_sharded_study(config, checkpoint=StudyCheckpoint(store))
        assert store.path.read_bytes() == b"".join(
            (run.to_json() + "\n").encode()
            for run in run_controlled_study(config).runs
        )
