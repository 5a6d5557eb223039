"""The four benchmark workloads: study, fleet, sync and harvest.

Each workload is one kind of operation a user of the system runs, at
the size the repository itself states for it:

* ``study`` — ``uucs study`` with its defaults: the paper's 33-user
  controlled study on the ``analytic`` engine in one process, its 1 056
  records appended to a result store.  Stresses the per-session engine,
  the user model, the machine's trace batches and JSON encoding.
* ``fleet`` — a 2 000-user study on the ``batch`` engine, timed as
  EXPERIMENTS.md times its fleet-scale rows (``run_controlled_study``
  alone, no store).  At 2 000 users the per-user work is ~93% of the
  operation and its cost per run is within 1% of the 5 000-user
  figure (11.9 against 11.8 us on a shared 2-vCPU Xeon VM); the
  20 000-user row itself takes 6 s and half a GB.
* ``sync`` — one client hot sync over TCP to the asyncio server,
  uploading 8 full-trace study records: the internet study at its
  defaults (40 clients for 12 hours, one sync per 4 hours, a testcase
  every 30 minutes) uploaded 7.9 records per uploading sync, median 8,
  in a measured run.  At that cadence a 100-client fleet syncs once every ~2.4
  minutes, so syncs do not overlap and one client is timed.
* ``harvest`` — ``uucs harvest`` with its defaults: a 1 000-client,
  32-epoch ``cdf``-policy fleet simulation at budget 0.05, plus its
  scoreboard JSON.  Pure Python decisions; no records, no IO.

Every input derives from the run's ``--seed``.  Each workload's output
is checked against an independent path: the study's store bytes
against the ``batch`` engine's; sampled users of the fleet study
against the ``analytic`` engine; the harvest scoreboard against a
2-shard run; the sync server's store against what the client uploaded.

A workload's life: :meth:`setup` (imports and fixtures, once),
:meth:`inputs` and :meth:`references` (benchmark-side, once), then in
each runner process :meth:`open`, ``prepare``/``op``/``check`` per
operation, :meth:`finish` and :meth:`close`.  The program is imported
inside :meth:`setup`, so the set-up probe charges the import to set-up.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from layers import LayerClock

__all__ = ["WORKLOADS"]

#: Records one controlled-study participant produces (4 tasks x 8).
RUNS_PER_USER = 32


def _seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lines_sha256(runs) -> str:
    return _sha256("".join(run.to_json() + "\n" for run in runs).encode())


def _per_op_us(clock: LayerClock, ops: int, layers: dict[str, tuple]) -> dict:
    """``{metric: ("[role:]layer", ...)}`` -> self microseconds per op."""
    out = {}
    for metric, parts in layers.items():
        total = 0.0
        for part in parts:
            role, _, layer = part.rpartition(":")
            total += clock.seconds(layer, role or None)
        out[metric] = (total / ops * 1e6, "us")
    return out


class Workload:
    """Defaults for the steps a workload does not need.

    ``POOL`` seeded configurations are cycled through; the program keeps
    no cache keyed by configuration content, so a repeated configuration
    costs what a fresh one does.  ``RUNNER_OPS`` is the most timed ops
    one forked runner makes; ``RUNNER_WARMUP`` says whether it makes one
    untimed op first (see ``run.measure``).  ``RSS_TRACKED`` workloads
    report their runners' resident-set growth per op in traced runs.

    ``SPEED_POWER`` is how an op's time follows the host-speed kernel's
    (see ``run.HostSpeed``): ops are scaled by the kernel's slowdown to
    this power.  Logged runs on the reference host (25 study, 10 fleet,
    15 harvest) were re-scaled at powers 0-1; the run-to-run spread of
    the median op was smallest at 0.65 for study and fleet and at 0.9
    for harvest, whose ops are pure-Python decisions and slow almost as
    much as the kernel.  Sync keeps 0.65, at which its spread was 4%.
    """

    POOL = 4
    RUNNER_OPS = 4
    RUNNER_WARMUP = False
    RSS_TRACKED = False
    SPEED_POWER = 0.65

    def inputs(self) -> None:
        pass

    def references(self) -> None:
        pass

    def open(self) -> None:
        pass

    def prepare(self, i: int) -> None:
        pass

    def finish(self) -> str | None:
        return None

    def close(self) -> None:
        pass


class Study(Workload):
    """``uucs study`` with its defaults, persisted to a result store."""

    name = "study"
    #: One op per forked runner: a ``uucs study`` process runs one study,
    #: and the program's id-keyed record-fragment cache keeps each
    #: study's records alive, so later studies in one process would run
    #: on a larger heap.  ``rss_growth_kb_per_op`` reports that growth.
    RUNNER_OPS = 1
    RSS_TRACKED = True
    USERS = 33

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.result = None

    def setup(self) -> None:
        from repro.stores import ResultStore
        from repro.study import ControlledStudyConfig, sharded

        # Called through the module so the traced pass's wrapper applies.
        self._sharded = sharded
        self.configs = [
            ControlledStudyConfig(n_users=self.USERS, seed=s)
            for s in _seeds(self.name, self.seed, self.POOL)
        ]
        self.store = ResultStore(self.work / "study")

    def references(self) -> None:
        import dataclasses

        from repro.study import run_controlled_study

        self.expected = [
            _lines_sha256(run_controlled_study(
                dataclasses.replace(config, engine="batch")
            ).runs)
            for config in self.configs
        ]

    def prepare(self, i: int) -> None:
        self.store.truncate(0)

    def op(self, i: int) -> int:
        # The ``uucs study`` path: one shard runs in-process, and its
        # records are appended as one batch.
        self.result = self._sharded.run_sharded_study(
            self.configs[i % self.POOL], shards=1
        )
        self.store.extend_batches([self.result.runs])
        return len(self.result.runs)

    def check(self, i: int) -> str | None:
        result, self.result = self.result, None
        want = self.USERS * RUNS_PER_USER
        if len(result.runs) != want:
            return f"study op {i}: {len(result.runs)} runs, want {want}"
        if _sha256(self.store.path.read_bytes()) != self.expected[i % self.POOL]:
            return f"study op {i}: store bytes differ from the batch engine"
        return None

    def trace(self, clock: LayerClock) -> None:
        from repro.core.run import TestcaseRun
        from repro.machine.machine import SimulatedMachine, TaskInteractivityModel
        from repro.stores import ResultStore
        from repro.study import controlled, engine
        from repro.users.behavior import SimulatedUser

        session = clock.wrap("session", engine.run_analytic_session)
        clock.replace(controlled, "get_session_engine", lambda name: session)
        clock.patch(controlled, "study_fixtures", "fixtures")
        clock.patch(controlled, "sample_population", "population")
        clock.patch(controlled, "_run_user_session", "session_loop")
        clock.patch(controlled, "derive_rng", "rng_derive")
        clock.patch(SimulatedUser, "__init__", "user_model")
        clock.patch(SimulatedUser, "begin_run", "user_model")
        clock.patch(engine, "_threshold_fire_step", "fire_scan")
        clock.patch(engine, "_level_array", "level_arrays")
        clock.patch(TaskInteractivityModel, "interactivity_batch", "machine_traces")
        clock.patch(SimulatedMachine, "sample_load_batch", "machine_traces")
        clock.patch(TestcaseRun, "to_json", "json_encode")
        clock.patch(ResultStore, "extend_batches", "store_write")

    def layers(self, clock: LayerClock, ops: int) -> dict:
        names = (
            "fixtures", "population", "session_loop", "rng_derive",
            "user_model", "session", "fire_scan", "level_arrays",
            "machine_traces", "json_encode", "store_write",
        )
        return _per_op_us(clock, ops, {f"study.{n}_us": (n,) for n in names})


class Fleet(Workload):
    """A fleet-scale controlled study on the ``batch`` engine."""

    name = "fleet"
    #: One op per forked runner, as for ``study``: the first study in a
    #: process pays the page faults of its ~50 MB record heap, and a
    #: ``uucs study`` process runs only that first one.
    RUNNER_OPS = 1
    USERS = 2000
    #: Users per configuration whose records are compared with the
    #: ``analytic`` engine.
    SAMPLED = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.result = None

    def setup(self) -> None:
        from repro.study import ControlledStudyConfig, controlled

        self._controlled = controlled
        self.configs = [
            ControlledStudyConfig(n_users=self.USERS, seed=s, engine="batch")
            for s in _seeds(self.name, self.seed, self.POOL)
        ]

    def references(self) -> None:
        import dataclasses

        from repro.study import run_user_range, study_fixtures

        rng = random.Random(f"{self.name}:{self.seed}:users")
        self.expected = []
        for config in self.configs:
            analytic = dataclasses.replace(config, engine="analytic")
            fixtures = study_fixtures(analytic)
            sampled = {}
            for user in rng.sample(range(self.USERS), self.SAMPLED):
                runs = run_user_range(analytic, user, user + 1, fixtures)
                sampled[user] = _lines_sha256(runs)
            self.expected.append(sampled)

    def op(self, i: int) -> int:
        self.result = self._controlled.run_controlled_study(
            self.configs[i % self.POOL]
        )
        return len(self.result.runs)

    def check(self, i: int) -> str | None:
        runs, self.result = self.result.runs, None
        want = self.USERS * RUNS_PER_USER
        if len(runs) != want:
            return f"fleet op {i}: {len(runs)} runs, want {want}"
        for user, digest in self.expected[i % self.POOL].items():
            mine = runs[user * RUNS_PER_USER:(user + 1) * RUNS_PER_USER]
            if _lines_sha256(mine) != digest:
                return f"fleet op {i}: user {user} differs from the analytic engine"
        return None

    def trace(self, clock: LayerClock) -> None:
        from repro.study import batch, controlled

        clock.patch(controlled, "run_controlled_study", "study")
        clock.patch(controlled, "study_fixtures", "fixtures")
        clock.patch(controlled, "sample_population", "population")
        clock.patch(batch, "run_batch_user_range", "user_draws")
        clock.patch(batch._CellPlan, "__init__", "cell_plan")
        clock.patch(batch, "_finalize_thresholds", "thresholds")
        clock.patch(batch, "_decide", "fire_steps")
        clock.patch(batch, "_emit", "stamping")

    def layers(self, clock: LayerClock, ops: int) -> dict:
        names = (
            "study", "fixtures", "population", "user_draws", "cell_plan",
            "thresholds", "fire_steps", "stamping",
        )
        return _per_op_us(clock, ops, {f"fleet.{n}_us": (n,) for n in names})


class Sync(Workload):
    """One client hot sync of a full-trace record batch over TCP."""

    name = "sync"
    #: Ops per runner, each runner after one untimed op: every synced
    #: record stays alive in the program's fragment cache (see
    #: ``rss_growth_kb_per_op``), so a runner is kept short.
    RUNNER_OPS = 64
    RUNNER_WARMUP = True
    RSS_TRACKED = True
    BATCH = 8
    POOL_USERS = 32
    LIBRARY_TASK = "word"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.expected: list[str] = []
        self.outcome = None

    def setup(self) -> None:
        from repro.client.client import ClientConfig, UUCSClient
        from repro.net import AsyncioServerTransport
        from repro.server import UUCSServer
        from repro.study.testcases import task_testcases

        self._server = UUCSServer
        self._listen = AsyncioServerTransport
        self._client = UUCSClient
        self._config = ClientConfig(root=self.work / "client")
        library = task_testcases(self.LIBRARY_TASK)
        self.open()
        self.server.add_testcases(library)
        self.client.register({"host": "perfbench"})
        self.library = (self.client.hot_sync()[0], len(library))

    def inputs(self) -> None:
        from repro.core.run import TestcaseRun
        from repro.study import ControlledStudyConfig, run_controlled_study

        self._record = TestcaseRun.from_json
        (pool_seed,) = _seeds(self.name, self.seed, 1)
        runs = run_controlled_study(
            ControlledStudyConfig(
                n_users=self.POOL_USERS, seed=pool_seed, engine="batch"
            )
        ).runs
        # Held as JSON text: strings are invisible to the cyclic garbage
        # collector, so the pool does not slow the program's collections.
        self.pool = [(run.run_id, run.to_json()) for run in runs]

    def open(self) -> None:
        """Start the server on its store and connect the client; both
        reload their identity and sync state from disk."""
        self.server = self._server(self.work / "server", seed=self.seed)
        self.listener = self._listen(self.server)
        self.transport = self.listener.connect()
        self.client = self._client(
            self._config, transport=self.transport, seed=self.seed
        )

    def prepare(self, i: int) -> None:
        """Queue a batch of pool records, under fresh run ids, in the
        client's local store, as a client that ran them would have."""
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        lines = []
        for slot, j in enumerate(rng.sample(range(len(self.pool)), self.BATCH)):
            old_id, line = self.pool[j]
            run_id = f"{self.seed % 2**32:08x}{i:016x}{slot:08x}"
            lines.append(line.replace(old_id, run_id, 1))
        self.client.results.extend(self._record(line) for line in lines)
        self.expected.extend(lines)
        self.acked = self.client.acked_seq

    def op(self, i: int) -> int:
        self.outcome = self.client.hot_sync()
        return self.outcome[1]

    def check(self, i: int) -> str | None:
        if self.library[0] != self.library[1]:
            return f"first sync downloaded {self.library[0]} testcases"
        if self.outcome != (0, self.BATCH):
            return f"sync op {i}: (downloaded, uploaded) = {self.outcome}"
        if self.client.acked_seq != self.acked + 1:
            return f"sync op {i}: ack seq {self.client.acked_seq}"
        return None

    def finish(self) -> str | None:
        """Compare the server's store with this process's uploads, then
        empty it, so its size (and append cost) stays stationary."""
        store = self.server.results
        want = "".join(line + "\n" for line in self.expected).encode()
        self.expected.clear()
        same = _sha256(store.path.read_bytes()) == _sha256(want)
        store.truncate(0)
        return None if same else "sync: server store differs from uploads"

    def close(self) -> None:
        self.transport.close()
        self.listener.close()

    def trace(self, clock: LayerClock) -> None:
        from repro.client import client
        from repro.core.run import TestcaseRun
        from repro.net import dispatcher
        from repro.server import registry, server
        from repro.stores import ResultStore

        clock.patch(client.UUCSClient, "hot_sync", "client_sync")
        clock.patch(ResultStore, "drain", "client_store")
        clock.patch(TestcaseRun, "from_json", "record_parse")
        clock.patch(TestcaseRun, "from_dict", "record_build")
        clock.patch(TestcaseRun, "to_dict", "record_dict")
        clock.patch(server, "encode_message", "request_encode")
        clock.patch(server, "decode_message", "response_decode")
        clock.patch(server.TCPClientTransport, "request", "round_trip")
        clock.patch(dispatcher.RequestDispatcher, "dispatch_line", "serve")
        clock.patch(dispatcher, "decode_message", "request_decode")
        clock.patch(dispatcher, "encode_message", "response_encode")
        clock.patch(server.UUCSServer, "handle", "dispatch")
        clock.patch(server.UUCSServer, "_dispatch", "dispatch")
        clock.patch(ResultStore, "extend", "store_append")
        clock.patch(TestcaseRun, "to_json", "store_encode")
        clock.patch(registry.ClientRegistry, "record_sync_ack", "ack_persist")
        clock.patch(client.UUCSClient, "_save_sync_state", "ack_persist")

    #: Layers of the server's handling, all on its event-loop thread.
    SERVER_LAYERS = (
        "serve", "request_decode", "record_build", "dispatch",
        "store_encode", "store_append", "ack_persist", "response_encode",
    )

    def layers(self, clock: LayerClock, ops: int) -> dict:
        out = _per_op_us(clock, ops, {
            "sync.client_read_us": (
                "main:record_parse", "main:record_build", "main:client_store",
            ),
            "sync.client_encode_us": ("main:record_dict", "main:request_encode"),
            "sync.client_decode_us": ("main:response_decode",),
            "sync.client_sync_us": ("main:client_sync",),
            "sync.server_decode_us": ("bg:request_decode",),
            "sync.record_build_us": ("bg:record_build",),
            "sync.dispatch_us": ("bg:dispatch", "bg:serve"),
            "sync.store_encode_us": ("bg:store_encode",),
            "sync.store_append_us": ("bg:store_append",),
            "sync.ack_persist_us": ("main:ack_persist", "bg:ack_persist"),
            "sync.response_encode_us": ("bg:response_encode",),
        })
        # The client's round trip spans the server's whole handling on
        # the other thread; what is left is the socket and event loop.
        served = sum(clock.seconds(n, "bg") for n in self.SERVER_LAYERS)
        out["sync.wire_us"] = (
            (clock.seconds("round_trip", "main") - served) / ops * 1e6, "us"
        )
        return out


class Harvest(Workload):
    """``uucs harvest`` with its defaults: fleet simulation + scoreboard."""

    name = "harvest"
    POOL = 2
    RUNNER_OPS = 64
    SPEED_POWER = 0.9
    CLIENTS = 1000
    EPOCHS = 32
    BUDGET = 0.05

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.text = ""

    def setup(self) -> None:
        from repro.scheduler import FleetConfig, run_fleet

        self._run = run_fleet
        self.configs = [
            FleetConfig(
                policy="cdf",
                clients=self.CLIENTS,
                epochs=self.EPOCHS,
                budget=self.BUDGET,
                seed=s,
            )
            for s in _seeds(self.name, self.seed, self.POOL)
        ]

    def references(self) -> None:
        self.expected = [
            _sha256(self._run(config, shards=2).to_json().encode())
            for config in self.configs
        ]

    def op(self, i: int) -> int:
        board = self._run(self.configs[i % self.POOL])
        self.text = board.to_json()
        return board.decisions

    def check(self, i: int) -> str | None:
        if _sha256(self.text.encode()) != self.expected[i % self.POOL]:
            return f"harvest op {i}: scoreboard differs from the 2-shard run"
        return None

    def trace(self, clock: LayerClock) -> None:
        from repro.scheduler import fleet, policy
        from repro.users.behavior import SimulatedUser

        clock.patch(fleet, "simulate_clients", "epoch_loop")
        clock.patch(fleet, "sample_profile", "user_model")
        clock.patch(fleet, "derive_rng", "user_model")
        clock.patch(fleet, "SimulatedUser", "user_model")
        clock.patch(SimulatedUser, "threshold_for", "user_model")
        clock.patch(fleet, "build_policy", "policy")
        for method in ("decide", "on_discomfort", "on_comfortable"):
            clock.patch(policy.CDFPolicy, method, "policy")
        clock.patch(fleet, "_merge_aggregates", "aggregate")
        clock.patch(fleet, "_scoreboard", "aggregate")
        clock.patch(fleet.Scoreboard, "to_json", "aggregate")

    def layers(self, clock: LayerClock, ops: int) -> dict:
        return _per_op_us(clock, ops, {
            f"harvest.{n}_us": (n,)
            for n in ("user_model", "policy", "epoch_loop", "aggregate")
        })


WORKLOADS = {cls.name: cls for cls in (Study, Fleet, Sync, Harvest)}
