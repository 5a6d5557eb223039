"""The UUCS client application logic.

The client is headless here (the paper's tray icon/hot-key GUI is a
feedback channel, supplied by the caller as a
:class:`~repro.core.session.FeedbackSource`), but the rest matches
Figure 5: local stores, registration, hot sync, testcase execution with
immediate stop on discomfort, and result recording.

Two execution modes (§2):

* **random mode** — local random testcase choice with Poisson arrivals
  (:meth:`UUCSClient.run_random`), used in the Internet-wide study;
* **deterministic mode** — "executing a predefined set of commands from a
  local file" (:meth:`UUCSClient.run_script`), used in the controlled study.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.client.scheduler import PoissonArrivals
from repro.core.run import RunContext, TestcaseRun
from repro.core.session import (
    FeedbackSource,
    InteractivityModel,
    record_discomfort_levels,
    run_simulated_session,
)
from repro.core.testcase import Testcase
from repro.errors import ProtocolError, ReproError, StoreError, ValidationError
from repro.server.protocol import PROTOCOL_VERSION, Message, RawRecords, Transport
from repro.stores import ResultStore, TestcaseStore
from repro.telemetry import Telemetry, get_telemetry
from repro.util.rng import SeedLike, ensure_rng

__all__ = ["ClientConfig", "SyncOutcome", "UUCSClient"]


def _count(response: Message, key: str) -> int:
    """A ``sync_ok`` count field (0 when a v1 server omits it)."""
    value = response.payload.get(key, 0)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"'{key}' must be an integer")
    return value


@dataclass(frozen=True)
class ClientConfig:
    """Client configuration (the paper's client is "configurable by the
    user, including privacy options")."""

    #: Directory holding the client's local stores and identity file.
    root: Path
    #: User identity attached to runs (empty = anonymous).
    user_id: str = "anonymous"
    #: How many new testcases to request per hot sync.
    sync_want: int = 8
    #: Mean seconds between testcase executions in random mode.
    mean_execution_interval: float = 1800.0
    #: Privacy: include the machine snapshot when registering.
    share_snapshot: bool = True
    #: Privacy: include load traces in uploaded results.
    share_load_traces: bool = True

    def __post_init__(self) -> None:
        if self.sync_want < 1:
            raise ValidationError(f"sync_want must be >= 1, got {self.sync_want}")
        if self.mean_execution_interval <= 0:
            raise ValidationError("mean_execution_interval must be positive")


@dataclass
class _Identity:
    client_id: str = ""

    @property
    def registered(self) -> bool:
        return bool(self.client_id)


@dataclass(frozen=True)
class SyncOutcome:
    """What one fault-tolerant sync attempt achieved (see
    :meth:`UUCSClient.try_sync`)."""

    #: The server acknowledged the upload batch.
    ok: bool
    #: Fresh testcases added to the local store.
    downloaded: int = 0
    #: Results drained from the local queue (0 when unacked).
    uploaded: int = 0
    #: Results still queued locally after the attempt.
    pending: int = 0
    #: The failure, when ``ok`` is False ("" on success).
    error: str = ""


class UUCSClient:
    """A UUCS client instance bound to a directory and a transport."""

    def __init__(
        self,
        config: ClientConfig,
        transport: Transport | None = None,
        seed: SeedLike = None,
        telemetry: Telemetry | None = None,
    ):
        self._config = config
        self._transport = transport
        self._rng = ensure_rng(seed)
        root = Path(config.root)
        self.testcases = TestcaseStore(root / "testcases")
        self.results = ResultStore(root / "results")
        self._identity_path = root / "identity"
        self._identity = _Identity(self._load_identity())
        self._sync_state_path = root / "sync_state.json"
        self._acked_seq = self._load_sync_state()
        self._server_protocol = 0  # unknown until the first exchange
        self._clock = 0.0
        self._telemetry = telemetry

    @property
    def telemetry(self) -> Telemetry:
        """The hub this client reports to (instance or process-wide)."""
        return self._telemetry if self._telemetry is not None else get_telemetry()

    # -- identity / registration ----------------------------------------------

    def _load_identity(self) -> str:
        if self._identity_path.exists():
            return self._identity_path.read_text().strip()
        return ""

    def _load_sync_state(self) -> int:
        if not self._sync_state_path.exists():
            return 0
        try:
            data = json.loads(self._sync_state_path.read_text())
            return max(0, int(data.get("acked_seq", 0)))
        except (json.JSONDecodeError, TypeError, ValueError):
            # A torn write costs at most one seq reuse, which the server's
            # run-id dedupe absorbs.
            return 0

    def _save_sync_state(self) -> None:
        self._sync_state_path.write_text(
            json.dumps({"acked_seq": self._acked_seq}) + "\n"
        )

    @property
    def acked_seq(self) -> int:
        """The highest sync sequence number the server has acknowledged."""
        return self._acked_seq

    @property
    def server_protocol(self) -> int:
        """Protocol revision the server last announced (0 = unknown/v1)."""
        return self._server_protocol

    @property
    def client_id(self) -> str:
        return self._identity.client_id

    @property
    def registered(self) -> bool:
        return self._identity.registered

    @property
    def clock(self) -> float:
        """The client's simulated wall clock, seconds."""
        return self._clock

    def advance_clock(self, dt: float) -> None:
        if dt < 0:
            raise ValidationError(f"cannot rewind the clock by {dt}")
        self._clock += dt

    def register(self, snapshot: Mapping[str, str] | None = None) -> str:
        """Register with the server and persist the assigned GUID."""
        if self._transport is None:
            raise ProtocolError("client has no transport (offline)")
        if self.registered:
            return self.client_id
        payload_snapshot = dict(snapshot or {})
        if not self._config.share_snapshot:
            payload_snapshot = {"privacy": "snapshot withheld"}
        telemetry = self.telemetry
        with telemetry.span("client.register") as span:
            payload: dict[str, object] = {"snapshot": payload_snapshot}
            if telemetry.enabled and span.context is not None:
                payload["trace"] = span.context.to_wire()
            response = self._transport.request(
                Message("register", payload)
            ).expect("registered")
            self._note_server_span(span, response)
            client_id = response.payload.get("client_id")
            if not isinstance(client_id, str) or not client_id:
                raise ProtocolError("server returned no client_id")
            announced = response.payload.get("protocol")
            if isinstance(announced, int) and not isinstance(announced, bool):
                self._server_protocol = announced
            self._identity = _Identity(client_id)
            self._identity_path.write_text(client_id + "\n")
            span.annotate(client=client_id)
            return client_id

    @staticmethod
    def _note_server_span(span, response: Message) -> None:
        """Record the server-side span echoed in a traced reply.

        The server grafts its handler span under ours and echoes its
        context back; annotating our span with the server span id makes
        the client log self-sufficient for "which server span served
        this round-trip" even before logs are merged.
        """
        from repro.telemetry import TraceContext

        echoed = TraceContext.from_wire(response.payload.get("trace"))
        if echoed is not None:
            span.annotate(server_span=echoed.span_id)

    # -- hot sync ---------------------------------------------------------------

    def hot_sync(self) -> tuple[int, int]:
        """One hot sync: upload pending results, download new testcases.

        Returns ``(downloaded, uploaded)`` counts.  Every sync request is
        stamped with a monotonically increasing ``sync_seq`` (persisted
        across restarts); retries of an unacknowledged batch reuse the
        same seq, so a v2 server recognizes replays and its run-id dedupe
        commits nothing twice.  The local result store is only drained
        once the server acknowledges the batch — by echoing the seq (v2)
        or by accepting the full count (v1).  A short acceptance count
        from a v2 server means duplicates were reconciled away, not that
        data was lost, so it no longer raises.

        Queued results go out as the store's lines, checked but not
        re-encoded (:class:`~repro.server.protocol.RawRecords`); with
        ``share_load_traces`` off, each run is parsed and its line
        re-encoded with an empty load trace instead.
        """
        if self._transport is None:
            raise ProtocolError("client has no transport (offline)")
        if not self.registered:
            raise ProtocolError("register before syncing")
        telemetry = self.telemetry
        with telemetry.span("hot_sync", client=self.client_id) as span:
            if self._config.share_load_traces:
                # The stored lines are already the records' wire form.
                lines = self.results.lines()
            else:
                lines = (
                    replace(run, load_trace={}).to_json()
                    for run in self.results
                )
            uploads = RawRecords(tuple(lines))
            sync_seq = self._acked_seq + 1
            payload: dict[str, object] = {
                "client_id": self.client_id,
                "have": self.testcases.ids(),
                "results": uploads,
                "want": self._config.sync_want,
                "protocol": PROTOCOL_VERSION,
                "sync_seq": sync_seq,
            }
            if telemetry.enabled and span.context is not None:
                # Carry this span's trace context so the server-side
                # handler span joins the same distributed trace.
                payload["trace"] = span.context.to_wire()
            response = self._transport.request(
                Message("sync", payload)
            ).expect("sync_ok")
            self._note_server_span(span, response)
            announced = response.payload.get("protocol")
            if isinstance(announced, int) and not isinstance(announced, bool):
                self._server_protocol = announced
            accepted = _count(response, "accepted")
            duplicates = _count(response, "duplicates")
            echoed = response.payload.get("sync_seq")
            acked = (
                echoed == sync_seq
                if echoed is not None
                # v1 server: no seq echo; the only ack signal is a full
                # acceptance count.
                else accepted == len(uploads)
            )
            uploaded = 0
            if acked:
                self.results.drain()
                uploaded = len(uploads)
                self._acked_seq = sync_seq
                self._save_sync_state()
                if duplicates:
                    # Reconciled, not lost: the server already held these
                    # run_ids from an earlier (ack-lost) attempt.
                    telemetry.emit(
                        "client.sync_reconcile",
                        client=self.client_id,
                        sync_seq=sync_seq,
                        duplicates=duplicates,
                        accepted=accepted,
                    )
                    if telemetry.enabled:
                        telemetry.metrics.counter(
                            "uucs_client_reconciled_results_total",
                            "Uploads the server reconciled as duplicates "
                            "of an earlier ack-lost sync.",
                        ).inc(duplicates)
            else:
                # The batch stays queued for the next sync; a v2 server
                # will dedupe whatever did land.
                telemetry.emit(
                    "client.sync_unacked",
                    client=self.client_id,
                    sync_seq=sync_seq,
                    accepted=accepted,
                    pending=len(uploads),
                )
                if telemetry.enabled:
                    telemetry.metrics.counter(
                        "uucs_client_unacked_syncs_total",
                        "Syncs whose upload batch was not acknowledged "
                        "(results kept queued).",
                    ).inc()
            shipped = response.payload.get("testcases", [])
            if not isinstance(shipped, list):
                raise ProtocolError("'testcases' must be a list")
            downloaded = 0
            for text in shipped:
                testcase = Testcase.from_text(str(text))
                if testcase.testcase_id not in self.testcases:
                    self.testcases.add(testcase)
                    downloaded += 1
            span.annotate(downloaded=downloaded, uploaded=uploaded)
            if telemetry.enabled:
                metrics = telemetry.metrics
                metrics.counter(
                    "uucs_client_syncs_total", "Hot syncs completed."
                ).inc()
                metrics.counter(
                    "uucs_client_downloaded_total",
                    "Testcases downloaded over all hot syncs.",
                ).inc(downloaded)
                metrics.counter(
                    "uucs_client_uploaded_total",
                    "Run results uploaded over all hot syncs.",
                ).inc(uploaded)
            return downloaded, uploaded

    def try_sync(self) -> SyncOutcome:
        """A hot sync that degrades gracefully instead of raising.

        Run loops call this so one flaky link cannot wedge a borrowing
        client: on any library failure the pending results stay queued
        locally, a ``client.sync_failed`` event and the
        ``uucs_client_sync_failures_total`` counter record the fault, and
        the caller gets a :class:`SyncOutcome` to act on (or ignore).
        """
        telemetry = self.telemetry
        try:
            downloaded, uploaded = self.hot_sync()
        except ReproError as exc:
            pending = self.results.committed()
            telemetry.emit(
                "client.sync_failed",
                client=self.client_id,
                error=str(exc),
                pending=pending,
            )
            if telemetry.enabled:
                telemetry.metrics.counter(
                    "uucs_client_sync_failures_total",
                    "Hot syncs that failed outright (results kept queued).",
                ).inc()
            return SyncOutcome(ok=False, pending=pending, error=str(exc))
        return SyncOutcome(
            ok=True,
            downloaded=downloaded,
            uploaded=uploaded,
            pending=self.results.committed(),
        )

    # -- push gateway -----------------------------------------------------------

    def push_metrics(self, host: str, port: int, strict: bool = False) -> int:
        """POST this client's metrics snapshot to a push gateway.

        The gateway is a :class:`~repro.telemetry.exporter.MetricsExporter`
        (``uucs serve --metrics-port``); the snapshot is keyed by this
        client's GUID (or its user id before registration) and federated
        into the server's fleet view.  Returns the number of metrics
        pushed.

        Pushes are best-effort by default: metrics are an observability
        side channel, so a dead gateway must never take down a borrowing
        client.  Failures return ``-1`` after emitting a
        ``client.push_failed`` event and bumping
        ``uucs_client_push_failures_total``; pass ``strict=True`` to
        raise instead.
        """
        from repro.telemetry.aggregate import push_snapshot

        telemetry = self.telemetry
        snapshot = telemetry.metrics.snapshot()
        identity = self.client_id or self._config.user_id
        try:
            response = push_snapshot(host, int(port), identity, snapshot)
        except (ReproError, OSError) as exc:
            if strict:
                raise
            telemetry.emit(
                "client.push_failed",
                gateway=f"{host}:{port}",
                error=str(exc),
            )
            if telemetry.enabled:
                telemetry.metrics.counter(
                    "uucs_client_push_failures_total",
                    "Metrics pushes that failed (gateway unreachable or "
                    "erroring); the client carries on.",
                ).inc()
            return -1
        if telemetry.enabled:
            telemetry.emit(
                "client.push",
                gateway=f"{host}:{port}",
                metrics=len(snapshot),
            )
        return int(response.get("metrics", len(snapshot)))  # type: ignore[arg-type]

    # -- execution ----------------------------------------------------------------

    def execute(
        self,
        testcase: Testcase,
        feedback: FeedbackSource,
        interactivity: InteractivityModel | None = None,
        task: str = "",
        extra: Mapping[str, str] | None = None,
    ) -> TestcaseRun:
        """Run one testcase and record the result locally."""
        context = RunContext(
            user_id=self._config.user_id,
            task=task,
            client_id=self.client_id,
            started_at=self._clock,
            extra=dict(extra or {}),
        )
        result = run_simulated_session(
            testcase,
            feedback,
            context,
            interactivity,
            run_id=TestcaseRun.new_run_id(self._rng),
        )
        self.results.append(result.run)
        self._clock += result.run.end_offset
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter(
                "uucs_client_runs_total",
                "Testcase runs executed and recorded locally, by outcome.",
                labelnames=("outcome",),
            ).inc(outcome=result.run.outcome.value)
            if telemetry is not get_telemetry():
                # The session loop already recorded the discomfort CDF on
                # the process hub; mirror it onto the client's own hub
                # when that is a different registry, so pushed snapshots
                # carry the CDF the fleet dashboard computes headroom
                # from (without double-counting when they are the same).
                record_discomfort_levels(telemetry, result.run)
            telemetry.emit(
                "client.run",
                testcase=testcase.testcase_id,
                outcome=result.run.outcome.value,
                end_offset=result.run.end_offset,
                task=task,
            )
        return result.run

    def run_script(
        self,
        testcase_ids: Sequence[str],
        feedback: FeedbackSource,
        interactivity: InteractivityModel | None = None,
        task: str = "",
    ) -> list[TestcaseRun]:
        """Deterministic mode: execute stored testcases in the given order."""
        runs = []
        for testcase_id in testcase_ids:
            testcase = self.testcases.get(testcase_id)
            runs.append(self.execute(testcase, feedback, interactivity, task))
        return runs

    def run_random(
        self,
        duration: float,
        feedback: FeedbackSource,
        interactivity: InteractivityModel | None = None,
        task: str = "",
    ) -> list[TestcaseRun]:
        """Random mode: Poisson arrivals over ``duration`` simulated seconds.

        Idle time between arrivals advances the clock without running
        anything; each arrival executes a uniformly chosen held testcase.
        """
        if duration < 0:
            raise ValidationError(f"duration must be >= 0, got {duration}")
        if not len(self.testcases):
            raise StoreError("no local testcases; hot sync first")
        with self.telemetry.span(
            "client.run_random", task=task, duration=duration
        ) as span:
            runs = self._run_random(duration, feedback, interactivity, task)
            span.annotate(runs=len(runs))
        return runs

    def _run_random(
        self,
        duration: float,
        feedback: FeedbackSource,
        interactivity: InteractivityModel | None,
        task: str,
    ) -> list[TestcaseRun]:
        arrivals = PoissonArrivals(self._config.mean_execution_interval, self._rng)
        runs: list[TestcaseRun] = []
        elapsed = 0.0
        while True:
            gap = arrivals.next_delay()
            if elapsed + gap >= duration:
                self._clock += duration - elapsed
                return runs
            elapsed += gap
            self._clock += gap
            testcase_id = arrivals.choose(self.testcases.ids())
            run = self.execute(
                self.testcases.get(testcase_id), feedback, interactivity, task
            )
            runs.append(run)
            elapsed += run.end_offset
