"""Append-only result store.

Run results accumulate in ``results.jsonl`` (one JSON document per run),
"stored in text-based form for later communication back to the server"
(§2.3).  The client drains the store at hot-sync time; the server appends
uploaded results to its own store for the analysis phase.

The store keeps an in-memory run-id index (built lazily from the file,
maintained incrementally afterwards) so the server can deduplicate
replayed hot-sync uploads in O(1) per run instead of re-reading the
whole file on every sync.

Every append, a checkpointed shard commit included, goes through one
encoder and one writer, so an append holds a few chunks of about
``ResultStore._CHUNK_BYTES`` at a time, however many runs it writes.
Each line is copied once, from its text to bytes; ``os.writev`` hands a
chunk's lines and newlines to the file without joining them.

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

__all__ = ["ResultStore", "committed_lines", "repair_tail"]

#: Bytes read per step while :func:`repair_tail` walks back to the last
#: newline.
_TAIL_BLOCK = 1 << 13
#: Buffers one ``os.writev`` call takes at most (``IOV_MAX`` on Linux
#: and macOS).
_IOV_MAX = 1024


def committed_lines(path: Path) -> Iterator[tuple[int, bytes]]:
    """Each committed line of the JSON-lines file ``path`` -- ended by a
    newline, not blank -- with its line number.  An unterminated final
    line is a crashed writer's; :func:`repair_tail` cuts it before the
    next append.  Lines stay bytes, so a caller decodes each one where
    it can report a bad one."""
    try:
        fh = path.open("rb")
    except FileNotFoundError:
        return
    with fh:
        for line_no, line in enumerate(fh, 1):
            if line.endswith(b"\n") and line.strip():
                yield line_no, line


def repair_tail(path: Path) -> bool:
    """Cut an unterminated final line from the JSON-lines file ``path``.

    Returns whether anything was removed.  Only the final line can lack
    a newline; everything before it was fully committed and is never
    touched.  The walk back reads fixed-size blocks, so it costs the
    torn line's length, not the file's.
    """
    try:
        fh = path.open("rb+")
    except FileNotFoundError:
        return False
    with fh:
        size = keep = fh.seek(0, os.SEEK_END)
        while keep:
            block_start = max(keep - _TAIL_BLOCK, 0)
            fh.seek(block_start)
            newline = fh.read(keep - block_start).rfind(b"\n")
            if newline >= 0:
                keep = block_start + newline + 1
                break
            keep = block_start
        if keep == size:
            return False
        fh.truncate(keep)
    return True


def _write_all(fd: int, pieces: list[bytes]) -> None:
    """Write ``pieces`` to ``fd`` in order with ``os.writev``, which may
    take fewer bytes than it is given: each call resumes where the last
    one stopped."""
    start = 0
    while start < len(pieces):
        batch = pieces[start : start + _IOV_MAX]
        written = os.writev(fd, batch)
        for piece in batch:
            if written < len(piece):
                break
            written -= len(piece)
            start += 1
        if written:
            # A short write ended inside this piece; its rest goes next.
            rest = memoryview(pieces[start])[written:]
            pieces = [rest, *pieces[start + 1 :]]
            start = 0


class ResultStore:
    """A JSON-lines file of testcase runs."""

    #: Bytes of encoded runs handed to the file at once: enough that
    #: syscalls are few, little enough that an append's transient memory
    #: stays a fixed size however many runs it carries.
    _CHUNK_BYTES = 1 << 20

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
        """Truncate an unterminated partial line left by a crashed writer
        (:func:`repair_tail`); return whether anything was removed."""
        return repair_tail(self._path)

    def _encode(
        self, batches: Iterable[Iterable[TestcaseRun]], dedupe: bool
    ) -> Iterator[tuple[list[bytes], int]]:
        """The store's one encoder: ``batches``' runs as canonical lines
        in chunks of about ``_CHUNK_BYTES``.  A chunk is its lines'
        bytes, each followed by a newline, as one list, and its run
        count.  With ``dedupe``, runs already stored or encoded are
        skipped; a built run-id index learns every id encoded."""
        index = self._index() if dedupe else self._ids
        pieces: list[bytes] = []
        size = 0
        for batch in batches:
            for run in batch:
                if dedupe and run.run_id in index:  # type: ignore[operator]
                    continue
                line = run.to_json().encode()
                pieces += (line, b"\n")
                size += len(line) + 1
                if index is not None:
                    index.add(run.run_id)
                if size >= self._CHUNK_BYTES:
                    yield pieces, len(pieces) // 2
                    pieces = []
                    size = 0
        if pieces:
            yield pieces, len(pieces) // 2

    def _write(
        self, chunks: Iterable[tuple[list[bytes], int]]
    ) -> tuple[int, int, int]:
        """The store's one writer: append encoded ``chunks`` after
        cutting a torn tail.  Returns the ``[start, end)`` byte span they
        occupy and how many runs they hold."""
        self.repair_tail()
        runs = 0
        try:
            with self._path.open("ab", buffering=0) as fh:
                # "a" positions at EOF lazily on some platforms; make the
                # start offset explicit.
                start = fh.seek(0, os.SEEK_END)
                for pieces, n in chunks:
                    _write_all(fh.fileno(), pieces)
                    runs += n
                end = fh.tell()
        except BaseException:
            # The index already holds ids whose lines may not have
            # landed; rebuild it from the file if anyone asks again.
            self._ids = None
            raise
        return start, end, runs

    def append(self, run: TestcaseRun) -> None:
        """Append one run."""
        self._write(self._encode([(run,)], dedupe=False))

    def extend(
        self, runs: Iterable[TestcaseRun], dedupe: bool = False
    ) -> int:
        """Append runs, returning how many were written.

        With ``dedupe=True`` runs whose ``run_id`` is already stored are
        silently skipped (idempotent upload semantics: a client blindly
        resending a batch after a lost ack commits nothing twice).
        """
        return self._write(self._encode([runs], dedupe))[2]

    def extend_batches(
        self,
        batches: Iterable[Sequence[TestcaseRun]],
        dedupe: bool = False,
    ) -> int:
        """Append pre-ordered batches, returning how many runs were written.

        The study engines append their merged batches through here.  The
        runs stream through the encoder a chunk of about
        ``_CHUNK_BYTES`` at a time, so the transient memory stays a few
        chunks whatever the batch's size.  A crash leaves only whole,
        parseable lines behind plus at worst one partial line, which
        :meth:`repair_tail` removes on the next append.
        """
        return self._write(self._encode(batches, dedupe))[2]

    def size(self) -> int:
        """Current byte size of the store file (0 if absent)."""
        try:
            return self._path.stat().st_size
        except FileNotFoundError:
            return 0

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

    def __contains__(self, run_id: str) -> bool:
        return run_id in self._index()

    def _records(self) -> Iterator[tuple[str, TestcaseRun]]:
        """Each committed record (:func:`committed_lines`) as its line's
        text and the run it parses to.  A committed line that does not
        parse raises :class:`StoreError` naming it."""
        for line_no, raw in committed_lines(self._path):
            try:
                line = raw.decode().strip()
                run = TestcaseRun.from_json(line)
            except (SerializationError, UnicodeDecodeError) as exc:
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
        return sum(1 for _ in committed_lines(self._path))

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
