"""Checkpoint manifest for resumable sharded studies.

A sharded study writes its run records into a :class:`ResultStore` in
shard-index order.  The manifest is a JSON-lines sidecar next to the
store (``results.jsonl.manifest``) that records, as each shard's batch
is committed, exactly which bytes it occupies and their SHA-256 — enough
for a later process to *prove* which shards survived a crash and salvage
them instead of recomputing:

``header``
    one per study: config identity (seed, users, engine, tasks, shard
    plan) plus ``base_offset``, the store size when the study began (the
    store is append-only, so earlier studies' bytes stay untouched).
``shard`` (status ``done``)
    a committed shard: user range, run count, ``[offset_start,
    offset_end)`` byte span in the store, and the span's SHA-256.
    Written in *frontier order* — shard *k* only after every shard below
    *k* — so the store is always a byte-exact prefix of the
    uninterrupted run's output.
``shard`` (status ``quarantined``)
    a shard the supervisor gave up on; carries no offsets (nothing was
    written) and stalls the frontier, since committing shard *k+1*'s
    bytes before *k*'s would break byte-identity forever.
``resume``
    stamped by :meth:`StudyCheckpoint.resume` after salvage, recording
    how many shards were kept and where the store now ends.
``complete``
    the study finished (possibly with quarantined shards).

Resume trusts nothing: each ``done`` record is re-verified against the
store bytes (offset contiguity from ``base_offset`` plus SHA-256), and
the salvaged set is the longest verified prefix.  Each span is read
once, line by line, hashing and parsing as it goes.  Without a
``complete`` record, everything after the prefix — including a torn
tail from a mid-append crash, removed via ``repair_tail``/truncate — is
recomputed.  That is what makes a resumed study byte-identical to an
uninterrupted one, which the golden shardcheck harness then pins.
After ``complete``, bytes past the study's last span were appended
later by someone else and are never cut: a study whose shards all
verify leaves the store as it is, and one with shards still to run
refuses to resume over such bytes.

A shard commit streams its runs through the store's own encoder and
writer, hashing each chunk as it is appended, and fsyncs the store
before the manifest line that names the span.  Every manifest line is
flushed and fsynced before the driver moves on: a manifest entry must
never point at bytes that were not durably committed first.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.core.run import TestcaseRun
from repro.errors import SerializationError, StudyError
from repro.stores.results import ResultStore, committed_lines

__all__ = ["ResumeState", "StudyCheckpoint"]

#: Manifest format version (bump on incompatible record changes).
MANIFEST_VERSION = 1


class ResumeState:
    """What a manifest salvage recovered.

    ``salvaged`` maps shard index to its parsed run batch for every
    verified shard (always a contiguous prefix ``0..k``); the driver
    reruns everything else.  ``truncated_to`` is the store's size after
    the salvage.
    """

    def __init__(self, salvaged: dict[int, list[TestcaseRun]], truncated_to: int):
        self.salvaged = salvaged
        self.truncated_to = truncated_to

    @property
    def runs_salvaged(self) -> int:
        return sum(len(batch) for batch in self.salvaged.values())


class StudyCheckpoint:
    """JSONL manifest tracking shard commits for one sharded study."""

    def __init__(self, store: ResultStore, path: str | Path | None = None):
        self._store = store
        self._path = (
            Path(path) if path is not None else Path(str(store.path) + ".manifest")
        )
        self._base_offset = 0

    @property
    def path(self) -> Path:
        return self._path

    # ------------------------------------------------------------------
    # manifest IO

    def _records(self) -> list[dict]:
        """All committed manifest records (a torn final line — a writer
        crashed mid-append — is dropped, like the store's own tail)."""
        records: list[dict] = []
        for line_no, line in committed_lines(self._path):
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise StudyError(
                    f"corrupt checkpoint manifest at "
                    f"{self._path.name}:{line_no}: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise StudyError(
                    f"corrupt checkpoint manifest at "
                    f"{self._path.name}:{line_no}: not an object"
                )
            records.append(record)
        return records

    def _append(self, record: Mapping) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        with self._path.open("a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    @staticmethod
    def _header_for(config, plan) -> dict:
        return {
            "kind": "header",
            "version": MANIFEST_VERSION,
            "seed": config.seed,
            "n_users": config.n_users,
            "engine": config.engine,
            "tasks": list(config.tasks),
            "shards": [[s.index, s.start, s.stop] for s in plan],
        }

    # ------------------------------------------------------------------
    # lifecycle

    def unfinished(self) -> bool:
        """Whether the manifest records a study that never completed —
        the state that demands an explicit resume-or-abandon decision."""
        records = self._records()
        return bool(records) and not any(
            r.get("kind") == "complete" for r in records
        )

    def begin(self, config, plan) -> None:
        """Open the manifest for a *fresh* study.

        Refuses to proceed over an unfinished manifest: blindly starting
        over would append a second copy of every record after the
        crashed run's partial bytes.  The operator chooses — resume, or
        delete the manifest to abandon the partial output.
        """
        if self.unfinished():
            raise StudyError(
                f"checkpoint manifest {self._path} records an unfinished "
                "study; resume it (--resume) or delete the manifest to "
                "start over"
            )
        self._store.repair_tail()
        self._base_offset = self._store.size()
        header = self._header_for(config, plan)
        header["base_offset"] = self._base_offset
        # A completed previous manifest is superseded wholesale.
        self._path.write_text("", encoding="utf-8")
        self._append(header)

    def resume(self, config, plan) -> ResumeState:
        """Verify the manifest against the store and salvage the longest
        byte-verified shard prefix.  The bytes after it are cut unless
        the study had completed (see the module docstring); resuming a
        completed study whose rerun would cut later appends raises
        :class:`StudyError`."""
        records = self._records()
        if not records:
            raise StudyError(
                f"no checkpoint manifest at {self._path} to resume from"
            )
        header = records[0]
        if header.get("kind") != "header":
            raise StudyError(
                f"checkpoint manifest {self._path} does not start with a "
                "header record"
            )
        self._check_header(header, config, plan)
        self._base_offset = int(header["base_offset"])
        self._store.repair_tail()

        done = [
            r
            for r in records
            if r.get("kind") == "shard" and r.get("status") == "done"
        ]
        complete = any(r.get("kind") == "complete" for r in records)
        salvaged: dict[int, list[TestcaseRun]] = {}
        expected_offset = self._base_offset
        store_size = self._store.size()
        for expected_index, record in enumerate(done):
            runs = self._verify_shard(
                record, expected_index, expected_offset, store_size, plan
            )
            if runs is None:
                break
            salvaged[expected_index] = runs
            expected_offset = int(record["offset_end"])

        finished = complete and len(salvaged) == len(plan)
        if complete and not finished:
            # The study's own bytes end at its last committed span; any
            # after that were appended once it had finished.
            named_end = max(
                (r["offset_end"] for r in done if isinstance(r.get("offset_end"), int)),
                default=self._base_offset,
            )
            if store_size > named_end:
                raise StudyError(
                    f"cannot resume: {store_size - named_end} bytes were "
                    f"appended to {self._store.path} after the study "
                    "completed, and rerunning its missing shards would "
                    "cut them"
                )
        keep = store_size if finished else expected_offset
        resume_record = {
            "kind": "resume",
            "salvaged_shards": len(salvaged),
            "salvaged_runs": sum(len(b) for b in salvaged.values()),
            "truncated_to": keep,
        }
        if finished:
            # Nothing to rerun: stamp the salvage after ``complete`` and
            # keep every byte, later appends included.
            self._append(resume_record)
        else:
            # Drop unverified bytes (a torn shard append, or the study's
            # own spans that failed to verify) so fresh shard commits
            # land exactly where the uninterrupted run would have put
            # them.  Rewrite the manifest to exactly what survived, then
            # stamp the salvage so the history of this resume is itself
            # durable.
            self._store.truncate(keep)
            self._rewrite([records[0]] + done[: len(salvaged)], resume_record)
        return ResumeState(salvaged, keep)

    def write_shard(self, shard, runs: Sequence[TestcaseRun]) -> tuple[int, int]:
        """Durably commit one shard batch: store bytes first, manifest
        record (span + digest) second.

        The runs go through the store's one encoder and writer, as any
        append does, and each chunk's bytes are hashed as they are
        written, so a commit never holds the shard's JSON whole.  The
        store is fsynced before the manifest line names its span.
        """
        store = self._store
        digest = hashlib.sha256()

        def hashed() -> Iterator[tuple[list[bytes], int]]:
            for chunk in store._encode([runs], dedupe=False):
                for piece in chunk[0]:
                    digest.update(piece)
                yield chunk

        start, end, _ = store._write(hashed())
        # fsync flushes the file's data whichever descriptor names it.
        with store.path.open("ab") as fh:
            os.fsync(fh.fileno())
        self._append(
            {
                "kind": "shard",
                "status": "done",
                "shard": shard.index,
                "start": shard.start,
                "stop": shard.stop,
                "runs": len(runs),
                "offset_start": start,
                "offset_end": end,
                "sha256": digest.hexdigest(),
            }
        )
        return start, end

    def quarantine(self, shard, attempts: int, reason: str) -> None:
        """Record a shard the supervisor gave up on (no bytes written)."""
        self._append(
            {
                "kind": "shard",
                "status": "quarantined",
                "shard": shard.index,
                "start": shard.start,
                "stop": shard.stop,
                "attempts": attempts,
                "error": reason,
            }
        )

    def complete(self, n_runs: int, quarantined: Sequence[int]) -> None:
        self._append(
            {
                "kind": "complete",
                "runs": n_runs,
                "quarantined": sorted(quarantined),
            }
        )

    # ------------------------------------------------------------------
    # verification helpers

    def _check_header(self, header: dict, config, plan) -> None:
        if header.get("version") != MANIFEST_VERSION:
            raise StudyError(
                f"checkpoint manifest {self._path} has version "
                f"{header.get('version')!r}, expected {MANIFEST_VERSION}"
            )
        for key, want in self._header_for(config, plan).items():
            got = header.get(key)
            if got != want:
                raise StudyError(
                    f"cannot resume: manifest {key} is {got!r} but the "
                    f"requested study has {want!r} — resuming under a "
                    "different config would corrupt the store"
                )

    def _verify_shard(
        self,
        record: dict,
        expected_index: int,
        expected_offset: int,
        store_size: int,
        plan,
    ) -> list[TestcaseRun] | None:
        """The runs of the span ``record`` names, or ``None`` when the
        record does not continue the verified prefix or its bytes fail
        their digest.  The span is read once, each line hashed and
        parsed as it comes, so it is never held whole."""
        try:
            shard = int(record["shard"])
            start = int(record["offset_start"])
            end = int(record["offset_end"])
            digest = str(record["sha256"])
        except (KeyError, TypeError, ValueError):
            return None
        if shard != expected_index or shard >= len(plan):
            return None
        planned = plan[shard]
        if (record.get("start"), record.get("stop")) != (
            planned.start,
            planned.stop,
        ):
            return None
        if start != expected_offset or end < start or end > store_size:
            return None
        hasher = hashlib.sha256()
        runs: list[TestcaseRun] = []
        error: Exception | None = None
        with self._store.path.open("rb") as fh:
            fh.seek(start)
            for line in iter(lambda: fh.readline(end - fh.tell()), b""):
                hasher.update(line)
                if error is None and line.strip():
                    try:
                        runs.append(TestcaseRun.from_json(line.decode()))
                    except (SerializationError, UnicodeDecodeError) as exc:
                        # An error only if the digest vouches for the
                        # span; a span that fails it is simply rerun.
                        error = exc
        if hasher.hexdigest() != digest:
            return None
        if error is not None:
            raise StudyError(
                f"checkpoint shard {shard} verified by digest but failed "
                f"to parse: {error}"
            ) from error
        if len(runs) != int(record.get("runs", -1)):
            raise StudyError(
                f"checkpoint shard {shard} has {len(runs)} runs, manifest "
                f"says {record.get('runs')}"
            )
        return runs

    def _rewrite(self, records: list[dict], resume_record: dict) -> None:
        tmp = self._path.with_suffix(self._path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for record in records + [resume_record]:
                fh.write(
                    json.dumps(record, separators=(",", ":"), sort_keys=True)
                    + "\n"
                )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._path)
