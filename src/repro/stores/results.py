"""Append-only result store.

Run results accumulate in ``results.jsonl`` (one JSON document per run),
"stored in text-based form for later communication back to the server"
(§2.3).  The client drains the store at hot-sync time; the server appends
uploaded results to its own store for the analysis phase.

The store keeps an in-memory run-id index (built lazily from the file,
maintained incrementally afterwards) so the server can deduplicate
replayed hot-sync uploads in O(1) per run instead of re-reading the
whole file on every sync.

Crash tolerance: a writer killed mid-append leaves one unterminated
partial line at the tail.  Readers ignore it (the record was never
fully committed), and the next append truncates it first so fresh
records never concatenate onto the wreckage.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.run import TestcaseRun
from repro.errors import SerializationError, StoreError

__all__ = ["ResultStore"]


class ResultStore:
    """A JSON-lines file of testcase runs."""

    def __init__(self, root: str | Path, filename: str = "results.jsonl"):
        self._root = Path(root)
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create result store at {root}: {exc}") from exc
        self._path = self._root / filename
        #: Lazily built run-id index; ``None`` until first needed.
        self._ids: set[str] | None = None

    @property
    def path(self) -> Path:
        return self._path

    def _index(self) -> set[str]:
        if self._ids is None:
            self._ids = {run.run_id for run in self}
        return self._ids

    def repair_tail(self) -> bool:
        """Truncate an unterminated partial line left by a crashed writer.

        Returns whether anything was removed.  Only the final line can
        lack a newline; everything before it was fully committed and is
        never touched.
        """
        if not self._path.exists():
            return False
        size = self._path.stat().st_size
        if size == 0:
            return False
        with self._path.open("rb+") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return False
            # Walk back to the last newline (or file start) and cut there.
            fh.seek(0)
            data = fh.read()
            keep = data.rfind(b"\n") + 1
            fh.truncate(keep)
        return True

    def append(self, run: TestcaseRun) -> None:
        """Append one run."""
        self.repair_tail()
        with self._path.open("a") as fh:
            fh.write(run.to_json() + "\n")
        if self._ids is not None:
            self._ids.add(run.run_id)

    def extend(
        self, runs: Iterable[TestcaseRun], dedupe: bool = False
    ) -> int:
        """Append runs, returning how many were written.

        With ``dedupe=True`` runs whose ``run_id`` is already stored are
        silently skipped (idempotent upload semantics: a client blindly
        resending a batch after a lost ack commits nothing twice).
        """
        self.repair_tail()
        index = self._index() if dedupe else self._ids
        count = 0
        with self._path.open("a") as fh:
            for run in runs:
                if dedupe and run.run_id in index:  # type: ignore[operator]
                    continue
                fh.write(run.to_json() + "\n")
                if index is not None:
                    index.add(run.run_id)
                count += 1
        return count

    def size(self) -> int:
        """Current byte size of the store file (0 if absent)."""
        try:
            return self._path.stat().st_size
        except FileNotFoundError:
            return 0

    def append_serialized(self, blob: bytes) -> tuple[int, int]:
        """Append pre-serialized record lines; return their byte span.

        The checkpointing study driver appends each shard's batch as one
        already-encoded buffer and records the returned
        ``(offset_start, offset_end)`` span (plus its digest) in the
        checkpoint manifest, so a resume can verify exactly which bytes
        a crashed run committed.  The blob must be whole ``\\n``-terminated
        lines; it is flushed *and* fsynced before the offsets are
        returned, because a manifest entry pointing at bytes the OS
        never persisted would salvage garbage after a power loss.
        """
        if not blob.endswith(b"\n"):
            raise StoreError("serialized batch must end with a newline")
        self.repair_tail()
        with self._path.open("ab") as fh:
            # "a" positions at EOF lazily on some platforms; make the
            # recorded start offset explicit.
            fh.seek(0, os.SEEK_END)
            start = fh.tell()
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        # The blob bypassed per-run bookkeeping; rebuild the id index
        # lazily if anyone asks again.
        self._ids = None
        return start, start + len(blob)

    def truncate(self, size: int) -> None:
        """Cut the store back to ``size`` bytes (resume salvage: drop
        everything after the last checkpoint-verified shard)."""
        if size < 0 or size > self.size():
            raise StoreError(
                f"cannot truncate {self._path.name} to {size} bytes "
                f"(current size {self.size()})"
            )
        if size == 0 and not self._path.exists():
            # A run interrupted before its first checkpoint commit never
            # created the file; there is nothing to cut.
            return
        with self._path.open("rb+") as fh:
            fh.truncate(size)
        self._ids = None

    def read_span(self, start: int, end: int) -> bytes:
        """Read raw bytes ``[start, end)`` (checkpoint verification)."""
        with self._path.open("rb") as fh:
            fh.seek(start)
            return fh.read(end - start)

    #: Lines joined per ``write`` in :meth:`extend_batches`.  Large
    #: enough that syscall count is negligible, small enough that a
    #: million-user batch (tens of GB of JSON) never materializes a
    #: second time as one giant buffer next to the live records.
    _WRITE_CHUNK_LINES = 8192

    def extend_batches(
        self,
        batches: Iterable[Sequence[TestcaseRun]],
        dedupe: bool = False,
    ) -> int:
        """Append pre-ordered batches, chunk-buffered writes.

        The sharded study engine merges per-shard run batches through
        here: serializing up to ``_WRITE_CHUNK_LINES`` records into a
        single buffer turns thousands of tiny writes into one syscall
        each, while bounding the transient memory — a fleet-scale batch
        streams through in constant space instead of doubling the
        driver's footprint.  A crash leaves only whole, parseable lines
        behind plus at worst one partial line, which
        :meth:`repair_tail` removes on the next append.
        """
        self.repair_tail()
        index = self._index() if dedupe else self._ids
        count = 0
        chunk = self._WRITE_CHUNK_LINES
        with self._path.open("a") as fh:
            for batch in batches:
                lines: list[str] = []
                for run in batch:
                    if dedupe and run.run_id in index:  # type: ignore[operator]
                        continue
                    lines.append(run.to_json() + "\n")
                    if index is not None:
                        index.add(run.run_id)
                    if len(lines) >= chunk:
                        fh.write("".join(lines))
                        count += len(lines)
                        lines.clear()
                if lines:
                    fh.write("".join(lines))
                    count += len(lines)
        return count

    def __contains__(self, run_id: str) -> bool:
        return run_id in self._index()

    def _records(self) -> Iterator[tuple[str, TestcaseRun]]:
        """Each stored record as its line's text and the run it parses to.

        Blank lines are skipped.  A newline-terminated line that does not
        parse raises :class:`StoreError` naming it; an unterminated one
        can only be the final line, a crashed writer's uncommitted partial
        record, and is ignored.
        """
        if not self._path.exists():
            return
        with self._path.open() as fh:
            for line_no, line in enumerate(fh, 1):
                terminated = line.endswith("\n")
                line = line.strip()
                if not line:
                    continue
                try:
                    run = TestcaseRun.from_json(line)
                except SerializationError as exc:
                    if not terminated:
                        return
                    raise StoreError(
                        f"corrupt result at {self._path.name}:{line_no}: {exc}"
                    ) from exc
                yield line, run

    def __iter__(self) -> Iterator[TestcaseRun]:
        return (run for _, run in self._records())

    def lines(self) -> list[str]:
        """The stored records' JSON text, one string per record.

        Every line is checked as iteration checks it, so a corrupt one
        raises :class:`StoreError` and nothing is returned.  The text is
        the canonical form the store wrote, so a hot sync can ship it
        without re-encoding.
        """
        return [line for line, _ in self._records()]

    def committed(self) -> int:
        """How many newline-terminated records the store holds, counted
        without parsing them (corrupt ones included)."""
        if not self._path.exists():
            return 0
        with self._path.open("rb") as fh:
            return sum(1 for line in fh if line.endswith(b"\n") and line.strip())

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def run_ids(self) -> set[str]:
        return set(self._index())

    def drain(self) -> None:
        """Empty the store without reading it (the client's queue, once
        the server acknowledges its upload)."""
        if self._path.exists():
            self._path.write_text("")
        self._ids = set()
