"""Tests for the text-file testcase and result stores."""

import hashlib
import json
import os
import tracemalloc

import pytest

from repro.core.exercise import constant, ramp
from repro.core.feedback import RunOutcome
from repro.core.resources import Resource
from repro.core.run import RunContext, TestcaseRun
from repro.core.testcase import Testcase
from repro.errors import StoreError
from repro.stores import ResultStore, TestcaseStore
from repro.stores import results as results_mod


def tc(tcid="t1", level=1.0):
    return Testcase.single(tcid, constant(Resource.CPU, level, 10.0))


def run_record(run_id="r1"):
    return TestcaseRun(
        run_id=run_id,
        testcase_id="t1",
        context=RunContext(user_id="u"),
        outcome=RunOutcome.EXHAUSTED,
        end_offset=10.0,
        testcase_duration=10.0,
        shapes={Resource.CPU: "constant"},
    )


class TestTestcaseStore:
    def test_add_get_roundtrip(self, tmp_path):
        store = TestcaseStore(tmp_path / "tcs")
        store.add(tc())
        assert store.get("t1").testcase_id == "t1"
        assert "t1" in store
        assert len(store) == 1

    def test_files_are_plain_text(self, tmp_path):
        store = TestcaseStore(tmp_path)
        store.add(tc())
        text = (tmp_path / "t1.testcase").read_text()
        assert text.startswith("UUCS-TESTCASE 1")

    def test_ids_sorted(self, tmp_path):
        store = TestcaseStore(tmp_path)
        store.add_all([tc("b"), tc("a"), tc("c")])
        assert store.ids() == ["a", "b", "c"]

    def test_iteration(self, tmp_path):
        store = TestcaseStore(tmp_path)
        store.add_all([tc("a"), tc("b")])
        assert [t.testcase_id for t in store] == ["a", "b"]

    def test_missing_raises(self, tmp_path):
        store = TestcaseStore(tmp_path)
        with pytest.raises(StoreError):
            store.get("nope")

    def test_overwrite_control(self, tmp_path):
        store = TestcaseStore(tmp_path)
        store.add(tc("x", 1.0))
        store.add(tc("x", 2.0))  # default overwrite
        assert store.get("x").functions[Resource.CPU].max_level() == 2.0
        with pytest.raises(StoreError):
            store.add(tc("x"), overwrite=False)

    def test_illegal_ids_rejected(self, tmp_path):
        store = TestcaseStore(tmp_path)
        for bad in ("", "../evil", ".hidden", "a/b"):
            with pytest.raises(StoreError):
                store.get(bad)

    def test_corrupt_file_surfaces_as_store_error(self, tmp_path):
        store = TestcaseStore(tmp_path)
        (tmp_path / "bad.testcase").write_text("garbage")
        with pytest.raises(StoreError):
            store.get("bad")

    def test_remove(self, tmp_path):
        store = TestcaseStore(tmp_path)
        store.add(tc())
        store.remove("t1")
        assert len(store) == 0
        with pytest.raises(StoreError):
            store.remove("t1")


class TestResultStore:
    def test_append_and_iterate(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(run_record("a"))
        store.append(run_record("b"))
        assert [r.run_id for r in store] == ["a", "b"]
        assert len(store) == 2
        assert store.run_ids() == {"a", "b"}

    def test_empty_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert list(store) == []
        assert len(store) == 0

    def test_extend_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.extend([run_record("a"), run_record("b")]) == 2

    def test_uploaded_long_trace_stored_whole(self, tmp_path):
        # A record parsed from a client's upload holds a plain-dict
        # trace; a long one is stored as json.dumps renders it and
        # reads back equal.
        data = run_record("long").to_dict()
        data["load_trace"] = {"slowdown": [i / 7 for i in range(60_000)]}
        run = TestcaseRun.from_dict(data)
        store = ResultStore(tmp_path)
        store.extend([run, run_record("next")])
        first = store.path.read_bytes().split(b"\n")[0]
        assert first == json.dumps(run.to_dict(), sort_keys=True).encode()
        assert list(store) == [run, run_record("next")]

    def test_drain_empties(self, tmp_path):
        store = ResultStore(tmp_path)
        store.extend([run_record("a"), run_record("b")])
        store.drain()
        assert store.path.read_bytes() == b""
        assert len(store) == 0
        # drain does not read the store, so a corrupt line goes too.
        store.append(run_record("c"))
        with store.path.open("a") as fh:
            fh.write("{broken\n")
        store.drain()
        assert store.path.read_bytes() == b""
        assert len(store) == 0

    def test_blank_lines_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(run_record("a"))
        with store.path.open("a") as fh:
            fh.write("\n\n")
        store.append(run_record("b"))
        assert len(store) == 2

    def test_corruption_reported_with_line(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(run_record("a"))
        with store.path.open("a") as fh:
            fh.write("{broken\n")
        with pytest.raises(StoreError, match="results.jsonl:2"):
            list(store)
        with pytest.raises(StoreError, match="results.jsonl:2"):
            store.lines()
        assert store.committed() == 2

    def test_lines_are_the_stored_text(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(run_record("a"))
        with store.path.open("a") as fh:
            fh.write("\n")
        store.append(run_record("b"))
        assert store.lines() == [run_record("a").to_json(), run_record("b").to_json()]
        assert store.committed() == 2

    def test_runs_roundtrip_exactly(self, tmp_path):
        store = ResultStore(tmp_path)
        original = run_record()
        store.append(original)
        assert next(iter(store)) == original


class TestResultStoreBatches:
    def test_extend_batches_counts_and_order(self, tmp_path):
        store = ResultStore(tmp_path)
        batches = [[run_record("a"), run_record("b")], [], [run_record("c")]]
        assert store.extend_batches(batches) == 3
        assert [r.run_id for r in store] == ["a", "b", "c"]

    def test_extend_batches_matches_extend_bytes(self, tmp_path):
        runs = [run_record(f"r{i}") for i in range(6)]
        flat = ResultStore(tmp_path / "flat")
        flat.extend(runs)
        batched = ResultStore(tmp_path / "batched")
        batched.extend_batches([runs[:2], runs[2:5], runs[5:]])
        assert flat.path.read_bytes() == batched.path.read_bytes()

    def test_extend_batches_into_empty_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.extend_batches([]) == 0
        assert len(store) == 0
        assert store.run_ids() == set()

    def test_extend_batches_dedupe(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(run_record("a"))
        wrote = store.extend_batches(
            [[run_record("a"), run_record("b")]], dedupe=True
        )
        assert wrote == 1
        assert [r.run_id for r in store] == ["a", "b"]

    def test_extend_batches_chunked_write_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        # A batch bigger than the write chunk must stream through in
        # pieces (bounded transient memory at fleet scale) yet produce
        # the same bytes, count, and order as a single-buffer write.
        runs = [run_record(f"c{i}") for i in range(10)]
        flat = ResultStore(tmp_path / "flat")
        flat.extend(runs)
        line_bytes = len(runs[0].to_json()) + 1
        chunks = []
        encode = ResultStore._encode

        def spy(self, batches, dedupe):
            for chunk in encode(self, batches, dedupe):
                chunks.append(chunk)
                yield chunk

        monkeypatch.setattr(ResultStore, "_encode", spy)
        # A chunk closes at the first line that takes it to the bound.
        monkeypatch.setattr(ResultStore, "_CHUNK_BYTES", 2 * line_bytes + 1)
        chunked = ResultStore(tmp_path / "chunked")
        assert chunked.extend_batches([runs]) == 10
        assert [n for _, n in chunks] == [3, 3, 3, 1]
        assert [sum(map(len, pieces)) for pieces, _ in chunks] == [
            n * line_bytes for _, n in chunks
        ]
        # Each chunk is its lines' bytes, each followed by a newline.
        assert b"".join(b"".join(pieces) for pieces, _ in chunks) == (
            flat.path.read_bytes()
        )
        assert all(
            pieces[1::2] == [b"\n"] * n and b"\n" not in b"".join(pieces[::2])
            for pieces, n in chunks
        )
        assert flat.path.read_bytes() == chunked.path.read_bytes()
        assert [r.run_id for r in chunked] == [f"c{i}" for i in range(10)]

    @pytest.mark.parametrize("cap", [1, 7, 500])
    def test_short_writes_still_land_every_byte(self, tmp_path, monkeypatch,
                                                cap):
        # os.writev may take fewer bytes than it is given: cut inside a
        # line, at a line's end, inside a newline piece.  The writer
        # resumes where each call stopped, so the bytes, the span and
        # the run count are exact.
        runs = [run_record(f"w{i}") for i in range(5)]
        flat = ResultStore(tmp_path / "flat")
        flat.append(run_record("first"))
        flat.extend(runs)
        writev = os.writev
        calls = []
        most = flat.size()  # a writer that never advances fails here

        def short_writev(fd, buffers):
            calls.append(len(buffers))
            assert len(calls) <= most, "the writer does not advance"
            return writev(fd, [b"".join(bytes(b) for b in buffers)[:cap]])

        store = ResultStore(tmp_path / "short")
        store.append(run_record("first"))
        monkeypatch.setattr(results_mod.os, "writev", short_writev)
        before = store.size()
        start, end, count = store._write(store._encode([runs], dedupe=False))
        assert (start, end, count) == (before, flat.size(), 5)
        assert store.path.read_bytes() == flat.path.read_bytes()
        assert len(calls) > 1
        assert [r.run_id for r in store] == ["first"] + [
            f"w{i}" for i in range(5)
        ]

    def test_writes_batch_at_most_iov_max_buffers(self, tmp_path,
                                                   monkeypatch):
        # One os.writev call takes at most IOV_MAX buffers; a chunk of
        # many short lines is handed over in several calls.
        monkeypatch.setattr(results_mod, "_IOV_MAX", 4)
        writev = os.writev
        sizes = []

        def counting_writev(fd, buffers):
            sizes.append(len(buffers))
            return writev(fd, buffers)

        monkeypatch.setattr(results_mod.os, "writev", counting_writev)
        runs = [run_record(f"i{i}") for i in range(5)]
        store = ResultStore(tmp_path)
        assert store.extend(runs) == 5
        assert sizes == [4, 4, 2]
        assert store.path.read_bytes() == b"".join(
            (run.to_json() + "\n").encode() for run in runs
        )


class TestResultStoreCrashTail:
    def crashed(self, tmp_path):
        """A store whose writer died mid-record."""
        store = ResultStore(tmp_path)
        store.extend([run_record("a"), run_record("b")])
        with store.path.open("a") as fh:
            fh.write('{"run_id": "half-written')  # no newline: uncommitted
        return store

    def test_partial_tail_ignored_on_read(self, tmp_path):
        self.crashed(tmp_path)
        reopened = ResultStore(tmp_path)
        assert [r.run_id for r in reopened] == ["a", "b"]
        assert reopened.lines() == [r.to_json() for r in reopened]
        assert reopened.committed() == 2

    def test_whole_record_without_newline_is_uncommitted(self, tmp_path):
        # A line counts once its newline is written: readers skip what
        # the next append's tail repair would cut.
        store = ResultStore(tmp_path)
        store.append(run_record("a"))
        with store.path.open("a") as fh:
            fh.write(run_record("b").to_json())
        assert [r.run_id for r in ResultStore(tmp_path)] == ["a"]
        assert store.committed() == 1
        store.append(run_record("c"))
        assert [r.run_id for r in ResultStore(tmp_path)] == ["a", "c"]

    def test_failed_append_forgets_unwritten_ids(self, tmp_path):
        # An append that fails part-way may have indexed ids whose lines
        # never landed; a retry must store each run exactly once.
        class Unencodable:
            run_id = "boom"

            def to_json(self):
                raise RuntimeError("cannot encode")

        store = ResultStore(tmp_path)
        store.append(run_record("a"))
        good = [run_record("b"), run_record("c")]
        with pytest.raises(RuntimeError):
            store.extend(good + [Unencodable()], dedupe=True)
        store.extend(good, dedupe=True)
        assert [r.run_id for r in store] == ["a", "b", "c"]

    def test_reopen_and_reindex_after_crash(self, tmp_path):
        self.crashed(tmp_path)
        reopened = ResultStore(tmp_path)
        assert reopened.run_ids() == {"a", "b"}
        assert "half-written" not in reopened

    def test_append_after_crash_repairs_tail(self, tmp_path):
        store = self.crashed(tmp_path)
        store.append(run_record("c"))
        assert [r.run_id for r in ResultStore(tmp_path)] == ["a", "b", "c"]
        assert b"half-written" not in store.path.read_bytes()

    def test_extend_batches_after_crash(self, tmp_path):
        self.crashed(tmp_path)
        reopened = ResultStore(tmp_path)
        assert reopened.extend_batches([[run_record("c"), run_record("d")]]) == 2
        assert [r.run_id for r in reopened] == ["a", "b", "c", "d"]

    def test_repair_tail_reports(self, tmp_path):
        store = self.crashed(tmp_path)
        assert store.repair_tail() is True
        assert store.repair_tail() is False

    def test_repair_tail_noop_cases(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.repair_tail() is False  # no file yet
        store.path.write_text("")
        assert store.repair_tail() is False  # empty file

    def test_repair_tail_whole_file_is_partial(self, tmp_path):
        store = ResultStore(tmp_path)
        store.path.write_text('{"no-newline')
        assert store.repair_tail() is True
        assert store.path.read_bytes() == b""
        assert list(store) == []

    @pytest.mark.parametrize("blocks,extra", [
        (0, 1), (1, -1), (1, 0), (1, 1), (3, 5),
    ])
    def test_repair_tail_walks_back_across_blocks(self, tmp_path, blocks,
                                                  extra):
        # The walk back reads fixed-size blocks; a torn line shorter
        # than, exactly as long as, or several times one block is cut
        # at the last newline, and no committed byte is touched.
        store = ResultStore(tmp_path)
        store.extend([run_record("a"), run_record("b")])
        committed = store.path.read_bytes()
        torn = b"x" * (blocks * results_mod._TAIL_BLOCK + extra)
        with store.path.open("ab") as fh:
            fh.write(torn)
        assert store.repair_tail() is True
        assert store.path.read_bytes() == committed

    def test_repair_tail_long_file_without_newline(self, tmp_path):
        store = ResultStore(tmp_path)
        store.path.write_bytes(b"y" * (2 * results_mod._TAIL_BLOCK + 3))
        assert store.repair_tail() is True
        assert store.path.read_bytes() == b""

    def test_terminated_corruption_still_raises(self, tmp_path):
        # Leniency is only for the crash-truncated tail; a corrupt line
        # that *was* committed (newline-terminated) stays a hard error.
        store = ResultStore(tmp_path)
        store.append(run_record("a"))
        with store.path.open("a") as fh:
            fh.write("{broken\n")
        with pytest.raises(StoreError, match="results.jsonl:2"):
            list(store)


def traced_peak(fn) -> int:
    """Peak bytes allocated, above what was live before, while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


STUDY_USERS = 16
#: What an append may hold at its peak: a small multiple of the chunk.
PEAK_LIMIT = 4 * ResultStore._CHUNK_BYTES


@pytest.fixture(scope="module")
def study_runs():
    """A batch-engine study's records (~9.6 MiB of JSON), encoded once:
    each trace table renders its columns on first use and keeps them,
    and those renders belong to the records, not to a write."""
    from repro.study import ControlledStudyConfig, run_controlled_study

    runs = run_controlled_study(
        ControlledStudyConfig(n_users=STUDY_USERS, seed=7, engine="batch")
    ).runs
    for run in runs:
        run.to_json()
    return runs


class TestBoundedWrites:
    """An append holds a few chunks of JSON, not its records' text."""

    def test_extend_batches_peak(self, tmp_path, study_runs):
        store = ResultStore(tmp_path)
        peak = traced_peak(lambda: store.extend_batches([study_runs]))
        assert store.size() > 2 * PEAK_LIMIT
        assert peak < PEAK_LIMIT, f"{peak} bytes traced"

    def test_checkpoint_commit_peak(self, tmp_path, study_runs):
        from repro.study.checkpoint import StudyCheckpoint
        from repro.study.sharded import shard_ranges

        store = ResultStore(tmp_path)
        checkpoint = StudyCheckpoint(store)
        shard = shard_ranges(STUDY_USERS, 1)[0]
        peak = traced_peak(lambda: checkpoint.write_shard(shard, study_runs))
        assert store.size() > 2 * PEAK_LIMIT
        assert peak < PEAK_LIMIT, f"{peak} bytes traced"
        # The commit wrote what any append writes, and its manifest line
        # names those bytes.
        plain = ResultStore(tmp_path / "plain")
        plain.extend_batches([study_runs])
        data = store.path.read_bytes()
        assert data == plain.path.read_bytes()
        record = json.loads(checkpoint.path.read_text())
        assert (record["offset_start"], record["offset_end"]) == (0, len(data))
        assert record["sha256"] == hashlib.sha256(data).hexdigest()
        assert record["runs"] == len(study_runs)

    def test_repair_tail_peak(self, tmp_path, study_runs):
        store = ResultStore(tmp_path)
        store.extend_batches([study_runs])
        committed = store.size()
        assert committed > 2 * PEAK_LIMIT
        with store.path.open("a") as fh:
            fh.write(study_runs[0].to_json()[:10_000])  # no newline: torn
        peak = traced_peak(store.repair_tail)
        assert store.size() == committed
        assert peak < PEAK_LIMIT, f"{peak} bytes traced"
