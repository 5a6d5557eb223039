"""Client registration (paper §2).

"When the client is initially run, it registers with the server, providing
it with a detailed snapshot of the hardware and software of the client
machine, and allowing the server to associate a globally unique identifier
with the client."

Registrations persist as JSON lines so the server can restart without
losing its client population.  The registry also remembers, per GUID, the
highest hot-sync sequence number it has acknowledged (``sync_acks.jsonl``,
append-only, last-write-wins) — the server-side half of the idempotent
sync protocol: a replayed upload after a lost ack is recognized instead of
committed twice, even across a server restart.

Both files keep the result store's crash rule: a load skips a torn final
line and the next append cuts it.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.errors import RegistrationError, StoreError
from repro.stores.results import committed_lines, repair_tail

__all__ = ["ClientRecord", "ClientRegistry"]


@dataclass(frozen=True)
class ClientRecord:
    """One registered client."""

    client_id: str
    snapshot: Mapping[str, str] = field(default_factory=dict)
    registered_at: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "client_id": self.client_id,
                "snapshot": dict(self.snapshot),
                "registered_at": self.registered_at,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "ClientRecord":
        try:
            data = json.loads(text)
            return cls(
                client_id=str(data["client_id"]),
                snapshot={
                    str(k): str(v) for k, v in dict(data.get("snapshot", {})).items()
                },
                registered_at=float(data.get("registered_at", 0.0)),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise RegistrationError(f"bad client record: {exc}") from exc


class ClientRegistry:
    """Persistent map of client GUIDs to registration snapshots."""

    def __init__(self, root: str | Path | None = None):
        self._records: dict[str, ClientRecord] = {}
        self._acks: dict[str, tuple[int, int]] = {}
        self._path: Path | None = None
        self._acks_path: Path | None = None
        if root is not None:
            root = Path(root)
            try:
                root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StoreError(f"cannot create registry at {root}: {exc}") from exc
            self._path = root / "registrations.jsonl"
            self._acks_path = root / "sync_acks.jsonl"
            self._load()

    def _load(self) -> None:
        for _, line in committed_lines(self._path):
            record = ClientRecord.from_json(line)
            self._records[record.client_id] = record
        for _, line in committed_lines(self._acks_path):
            try:
                data = json.loads(line)
                client_id = str(data["client_id"])
                seq = int(data["sync_seq"])
                accepted = int(data.get("accepted", 0))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # A committed line that does not parse (a torn ack that
                # an append joined before tails were cut) loses that ack
                # alone; run-id dedupe still protects the store.
                continue
            self._acks[client_id] = (seq, accepted)

    def register(
        self, snapshot: Mapping[str, str], now: float = 0.0
    ) -> ClientRecord:
        """Register a client, assigning a fresh GUID."""
        record = ClientRecord(
            client_id=uuid.uuid4().hex,
            snapshot={str(k): str(v) for k, v in snapshot.items()},
            registered_at=float(now),
        )
        self._records[record.client_id] = record
        if self._path is not None:
            repair_tail(self._path)
            with self._path.open("a") as fh:
                fh.write(record.to_json() + "\n")
        return record

    # -- idempotent-sync bookkeeping ---------------------------------------

    def last_acked(self, client_id: str) -> tuple[int, int]:
        """The highest ``(sync_seq, accepted)`` acknowledged for a client.

        ``(0, 0)`` for clients that never synced (client sequence numbers
        start at 1) or that speak protocol v1.
        """
        return self._acks.get(client_id, (0, 0))

    def record_sync_ack(
        self, client_id: str, sync_seq: int, accepted: int
    ) -> None:
        """Remember (and persist) that ``sync_seq`` was acknowledged."""
        if sync_seq <= self._acks.get(client_id, (0, 0))[0]:
            return
        self._acks[client_id] = (int(sync_seq), int(accepted))
        if self._acks_path is not None:
            repair_tail(self._acks_path)
            with self._acks_path.open("a") as fh:
                fh.write(
                    json.dumps(
                        {
                            "client_id": client_id,
                            "sync_seq": int(sync_seq),
                            "accepted": int(accepted),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    def lookup(self, client_id: str) -> ClientRecord:
        try:
            return self._records[client_id]
        except KeyError:
            raise RegistrationError(f"unknown client {client_id!r}") from None

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def client_ids(self) -> list[str]:
        return sorted(self._records)
