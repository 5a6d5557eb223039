"""Tests for the sqlite result database."""

import pytest

from repro.analysis.database import ResultDatabase
from repro.analysis.report import metric_tables
from repro.core.resources import Resource
from repro.errors import StoreError
from repro.stores.results import ResultStore


@pytest.fixture(scope="module")
def db(small_study):
    database = ResultDatabase()
    database.import_runs(small_study.runs)
    yield database
    database.close()


class TestImport:
    def test_count(self, db, small_study):
        assert len(db) == len(small_study.runs)

    def test_reimport_idempotent(self, small_study):
        with ResultDatabase() as database:
            database.import_runs(small_study.runs)
            assert database.import_runs(small_study.runs) == len(
                small_study.runs
            )
            assert len(database) == len(small_study.runs)

    def test_store_streams_in_and_a_bad_line_rolls_back(
        self, tmp_path, small_study
    ):
        store = ResultStore(tmp_path / "store")
        store.extend(small_study.runs)
        with ResultDatabase() as database:
            assert database.import_runs(store) == len(small_study.runs)
        with store.path.open("a") as fh:
            fh.write("not a run\n")
        store.extend(small_study.runs[:3])
        with ResultDatabase() as database:
            with pytest.raises(StoreError):
                database.import_runs(store)
            assert len(database) == 0

    def test_file_backed(self, tmp_path, small_study):
        path = tmp_path / "results.sqlite"
        with ResultDatabase(path) as database:
            database.import_runs(small_study.runs)
        with ResultDatabase(path) as database:
            assert len(database) == len(small_study.runs)


class TestQueries:
    def test_runs_roundtrip(self, db, small_study):
        restored = sorted(db.runs(), key=lambda r: r.run_id)
        original = sorted(small_study.runs, key=lambda r: r.run_id)
        assert restored == original

    def test_task_filter(self, db):
        runs = list(db.runs(task="quake"))
        assert runs
        assert all(r.context.task == "quake" for r in runs)

    def test_resource_filter(self, db):
        runs = list(db.runs(resource=Resource.DISK))
        assert runs
        assert all(r.shapes.get(Resource.DISK) in ("ramp", "step") for r in runs)

    def test_blank_filter(self, db, small_study):
        blanks = list(db.runs(blank=True))
        assert len(blanks) == len(small_study.runs) // 4

    def test_user_filter(self, db, small_study):
        user = small_study.profiles[0].user_id
        runs = list(db.runs(user_id=user))
        assert len(runs) == 32

    def test_tasks_listing(self, db):
        assert db.tasks() == ["ie", "powerpoint", "quake", "word"]

    def test_outcome_counts(self, db, small_study):
        counts = db.outcome_counts()
        assert sum(counts.values()) == len(small_study.runs)
        word_counts = db.outcome_counts(task="word")
        assert sum(word_counts.values()) == 6 * 8


class TestAnalysisFromDatabase:
    def test_metric_tables_from_db_match_memory(self, db, small_study):
        from_db, _ = metric_tables(list(db.runs()))
        from_mem, _ = metric_tables(list(small_study.runs))
        for key in from_mem:
            assert from_db[key].f_d == from_mem[key].f_d
