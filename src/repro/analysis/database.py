"""Result database (paper Figure 2: "importing testcase results into a
database" for analysis).

A thin sqlite3 layer: runs are imported whole (JSON) plus an indexed
column projection for querying, and can be read back as
:class:`~repro.core.run.TestcaseRun` objects, so every analysis function
also works from a database file.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.resources import Resource
from repro.core.run import TestcaseRun
from repro.errors import StoreError

__all__ = ["ResultDatabase"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    testcase_id TEXT NOT NULL,
    user_id TEXT NOT NULL,
    task TEXT NOT NULL,
    client_id TEXT NOT NULL,
    outcome TEXT NOT NULL,
    end_offset REAL NOT NULL,
    testcase_duration REAL NOT NULL,
    primary_resource TEXT,
    primary_shape TEXT,
    discomfort_level REAL,
    is_blank INTEGER NOT NULL,
    json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_task ON runs (task);
CREATE INDEX IF NOT EXISTS idx_runs_cell ON runs (task, primary_resource);
CREATE INDEX IF NOT EXISTS idx_runs_user ON runs (user_id);
"""


class ResultDatabase:
    """SQLite-backed store of testcase runs."""

    def __init__(self, path: str | Path = ":memory:"):
        self._path = str(path)
        try:
            self._conn = sqlite3.connect(self._path)
            self._conn.executescript(_SCHEMA)
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open result database {path}: {exc}") from exc

    # -- context management -------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- import --------------------------------------------------------------

    @staticmethod
    def _project(run: TestcaseRun) -> tuple:
        exercised = run.exercised
        primary = exercised[0] if len(exercised) == 1 else None
        is_blank = int(not exercised)
        level = None
        if run.discomforted and primary is not None:
            level = run.discomfort_level(primary)
        return (
            run.run_id,
            run.testcase_id,
            run.context.user_id,
            run.context.task,
            run.context.client_id,
            str(run.outcome),
            run.end_offset,
            run.testcase_duration,
            primary.value if primary else None,
            run.shapes.get(primary, "") if primary else None,
            level,
            is_blank,
            run.to_json(),
        )

    def import_runs(self, runs: Iterable[TestcaseRun]) -> int:
        """Insert runs as they are yielded, in one transaction (replacing
        duplicates by run_id); returns count."""
        try:
            with self._conn:
                return self._conn.executemany(
                    "INSERT OR REPLACE INTO runs VALUES "
                    "(?,?,?,?,?,?,?,?,?,?,?,?,?)",
                    map(self._project, runs),
                ).rowcount
        except sqlite3.Error as exc:
            raise StoreError(f"import failed: {exc}") from exc

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(count)

    def runs(
        self,
        *,
        task: str | None = None,
        resource: Resource | None = None,
        user_id: str | None = None,
        blank: bool | None = None,
    ) -> Iterator[TestcaseRun]:
        """Stream runs matching the given filters."""
        clauses, args = [], []
        if task is not None:
            clauses.append("task = ?")
            args.append(task)
        if resource is not None:
            clauses.append("primary_resource = ?")
            args.append(resource.value)
        if user_id is not None:
            clauses.append("user_id = ?")
            args.append(user_id)
        if blank is not None:
            clauses.append("is_blank = ?")
            args.append(int(blank))
        sql = "SELECT json FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        for (payload,) in self._conn.execute(sql, args):
            yield TestcaseRun.from_json(payload)

    def tasks(self) -> list[str]:
        """Distinct task names present."""
        rows = self._conn.execute(
            "SELECT DISTINCT task FROM runs ORDER BY task"
        ).fetchall()
        return [row[0] for row in rows]

    def outcome_counts(self, task: str | None = None) -> dict[str, int]:
        """Run counts by outcome, optionally for one task."""
        if task is None:
            rows = self._conn.execute(
                "SELECT outcome, COUNT(*) FROM runs GROUP BY outcome"
            )
        else:
            rows = self._conn.execute(
                "SELECT outcome, COUNT(*) FROM runs WHERE task = ? "
                "GROUP BY outcome",
                (task,),
            )
        return {outcome: int(count) for outcome, count in rows}
