"""The ``uucs`` command-line toolchain (paper Figure 2).

Subcommands::

    uucs testcase-gen   generate testcases (step/ramp/... or a library)
    uucs testcase-view  print a stored testcase's shape and summary
    uucs testcase-edit  derive new testcases (scale/clip/crop/retime/merge)
    uucs study          run the controlled study, storing results
    uucs analyze        regenerate the paper's tables + the six answers
    uucs validate       check a result store's integrity
    uucs serve          run a UUCS server over TCP
    uucs client         run a client against a TCP server
    uucs import-db      import a result store into a sqlite database
    uucs metrics-summary  summarize a telemetry event log
    uucs trace          assemble distributed traces from event logs
    uucs clients        per-client rollups from a metrics endpoint
    uucs top            live fleet dashboard over a metrics endpoint
    uucs dashboard      open the live web fleet dashboard

Every command works on the plain-text stores, so the pipeline can be
driven entirely from a shell.

Failures surface as one-line ``error:`` messages with a distinct exit
code per :class:`~repro.errors.ReproError` subclass (see
``_EXIT_CODES``), so scripts can branch on *what* failed without
parsing stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro._version import __version__
from repro.analysis.database import ResultDatabase
from repro.core.exercise import blank, constant, ramp, sawtooth, sine, step
from repro.core.resources import Resource
from repro.core.testcase import Testcase
from repro.core.transform import (
    clip_levels,
    crop,
    merge,
    retime,
    scale_levels,
    with_id,
)
from repro.errors import (
    AnalysisError,
    ExerciserError,
    MonitorError,
    ProtocolError,
    ReproError,
    SchedulerError,
    SerializationError,
    StoreError,
    StudyError,
    ThrottleError,
    ValidationError,
)
from repro.faults.shardchaos import ShardFaultPlan
from repro.net import AsyncioServerTransport
from repro.server.server import TCPClientTransport, UUCSServer
from repro.stores import ResultStore, TestcaseStore
from repro.study.checkpoint import StudyCheckpoint
from repro.study.controlled import ENGINES, ControlledStudyConfig
from repro.study.internet import generate_library
from repro.scheduler.policy import SCHEDULER_POLICIES
from repro.study.sharded import resolve_shards, run_sharded_study, shard_ranges
from repro.study.supervisor import SupervisorPolicy
from repro.telemetry import Telemetry, use_telemetry

__all__ = ["main"]

#: Exit code per error family; the most-derived match in the exception's
#: MRO wins (e.g. RegistrationError exits as ProtocolError's 6).  2 is
#: the generic ReproError fallback; 0/1 keep their usual meanings.
_EXIT_CODES: dict[type[ReproError], int] = {
    ReproError: 2,
    ValidationError: 3,
    SerializationError: 4,
    StoreError: 5,
    ProtocolError: 6,
    ExerciserError: 7,
    MonitorError: 8,
    StudyError: 9,
    AnalysisError: 10,
    ThrottleError: 11,
    SchedulerError: 12,
}


def _exit_code(exc: ReproError) -> int:
    for klass in type(exc).__mro__:
        if klass in _EXIT_CODES:
            return _EXIT_CODES[klass]  # type: ignore[index]
    return 2


def _print(*parts: object, err: bool = False) -> None:
    """The single user-facing output emitter for every subcommand.

    Always flushes: long-running commands (``uucs serve``) print their
    bound addresses and then block, and scripts reading a pipe must see
    those lines immediately, not when the block buffer drains at exit.
    """
    print(*parts, file=sys.stderr if err else sys.stdout, flush=True)


def _cmd_testcase_gen(args: argparse.Namespace) -> int:
    store = TestcaseStore(args.store)
    if args.library:
        testcases = generate_library(args.library, seed=args.seed)
        store.add_all(testcases)
        _print(f"generated {len(testcases)} library testcases into {store.root}")
        return 0
    resource = Resource.parse(args.resource)
    if args.shape == "step":
        fn = step(resource, args.level, args.duration, args.breakpoint)
    elif args.shape == "ramp":
        fn = ramp(resource, args.level, args.duration)
    elif args.shape == "sine":
        fn = sine(resource, args.level / 2.0, args.period, args.duration)
    elif args.shape == "sawtooth":
        fn = sawtooth(resource, args.level, args.period, args.duration)
    elif args.shape == "constant":
        fn = constant(resource, args.level, args.duration)
    else:
        fn = blank(resource, args.duration)
    testcase_id = args.id or f"{args.shape}-{resource.value}-{args.level:g}"
    store.add(Testcase.single(testcase_id, fn))
    _print(f"wrote testcase {testcase_id!r} to {store.root}")
    return 0


from repro.analysis.plots import sparkline as _sparkline


def _cmd_testcase_view(args: argparse.Namespace) -> int:
    store = TestcaseStore(args.store)
    testcase = store.get(args.id)
    _print(f"testcase {testcase.testcase_id}")
    _print(f"  sample rate: {testcase.sample_rate:g} Hz")
    _print(f"  duration:    {testcase.duration:g} s")
    for resource in testcase.resources:
        fn = testcase.functions[resource]
        _print(
            f"  {resource.value:7s} shape={fn.shape:9s} "
            f"max={fn.max_level():.3g} mean={fn.series.mean():.3g}"
        )
        _print(f"    [{_sparkline(list(fn.values))}]")
    for key in sorted(testcase.metadata):
        _print(f"  meta {key}={testcase.metadata[key]}")
    return 0


def _parse_hostport(value: str, flag: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` option value or raise :class:`ValidationError`."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ValidationError(f"{flag} needs HOST:PORT, got {value!r}")
    return host, int(port)


def _gateway_pusher(push_to: tuple[str, int], client_id: str, hub: Telemetry):
    """A best-effort snapshot pusher for mid-study progress updates."""
    from repro.telemetry.aggregate import push_snapshot

    def push(_progress=None) -> bool:
        try:
            push_snapshot(push_to[0], push_to[1], client_id, hub.metrics.snapshot())
            return True
        except (ReproError, OSError):
            return False  # observability side channel; the study carries on

    return push


def _cmd_study(args: argparse.Namespace) -> int:
    config = ControlledStudyConfig(
        n_users=args.users, seed=args.seed, engine=args.engine
    )
    n_shards = resolve_shards(args.shards, config.n_users)
    chaos = None
    if args.chaos:
        chaos_seed = args.chaos_seed
        if chaos_seed is None:
            chaos_seed = int(os.environ.get("UUCS_CHAOS_SEED", "0"))
        chaos = ShardFaultPlan.parse(args.chaos, seed=chaos_seed)
    store = ResultStore(args.results)
    # Sharded (and chaos/resume/watchdog) runs go through the supervised
    # engine with a checkpoint manifest, which commits shards to the
    # store itself; the plain single-shard study stays in-process and is
    # appended below, exactly as before.
    supervised = (
        n_shards > 1
        or args.resume
        or chaos is not None
        or args.watchdog is not None
    )
    supervisor = checkpoint = None
    if supervised:
        supervisor = SupervisorPolicy(
            max_attempts=args.shard_retries, watchdog_s=args.watchdog
        )
        checkpoint = StudyCheckpoint(store)
    elif StudyCheckpoint(store).unfinished():
        raise StudyError(
            f"{store.path}.manifest records an unfinished study; rerun "
            "with --resume to salvage it, or delete the manifest to "
            "abandon the partial results"
        )
    push_to = (
        _parse_hostport(args.push_gateway, "--push-gateway")
        if args.push_gateway
        else None
    )
    # Pushing progress implies collecting metrics, even without an event
    # log on disk (mirrors `uucs client --push-gateway`).
    hub: Telemetry | None = None
    if args.telemetry:
        hub = Telemetry.to_path(args.telemetry)
    elif push_to is not None:
        hub = Telemetry()
    on_progress = None
    if push_to is not None and hub is not None:
        on_progress = _gateway_pusher(
            push_to, f"study-seed{config.seed}", hub
        )
    if args.resume:
        _print(f"resuming from checkpoint {store.path}.manifest")
    # One timer pair around the whole study — never inside the per-run hot
    # loop, where per-session timing belongs to (and is gated by) telemetry.
    started = time.perf_counter()
    study_kwargs = dict(
        shards=n_shards,
        max_workers=args.workers,
        on_progress=on_progress,
        supervisor=supervisor,
        checkpoint=checkpoint,
        resume=args.resume,
        chaos=chaos,
    )
    try:
        if hub is not None:
            # Supervised shards run in worker processes, which get sibling
            # logs named <telemetry stem>.shardN.jsonl (at any shard count)
            # so `uucs trace <telemetry> <stem>.shard*.jsonl` reassembles the
            # full study tree across the driver and every worker process.
            worker_prefix = None
            if args.telemetry and supervised:
                tpath = Path(args.telemetry)
                worker_prefix = tpath.with_suffix("") if tpath.suffix else tpath
            with use_telemetry(hub):
                result = run_sharded_study(
                    config, worker_telemetry=worker_prefix, **study_kwargs
                )
        else:
            result = run_sharded_study(config, **study_kwargs)
    except KeyboardInterrupt:
        if checkpoint is not None:
            _print(
                f"interrupted: completed shards are checkpointed in "
                f"{store.path}; rerun with --resume to continue",
                err=True,
            )
        else:
            _print("interrupted", err=True)
        return 130
    if checkpoint is None:
        store.extend_batches([result.runs])
    # Read after the store write, which the checkpointed path's shard
    # commits already include, so both paths time the same work.
    elapsed = time.perf_counter() - started
    shards = shard_ranges(config.n_users, n_shards)
    _print(
        f"controlled study: {len(result.runs)} runs from "
        f"{len(result.profiles)} users -> {store.path}"
    )
    rate = len(result.runs) / elapsed if elapsed > 0 else 0.0
    _print(
        f"  {len(shards)} shard(s), {elapsed:.2f}s wall "
        f"({rate:.0f} runs/s)"
    )
    if result.quarantined:
        _print(
            f"warning: {len(result.quarantined)} shard(s) quarantined "
            f"after {args.shard_retries} attempts each: "
            f"{', '.join(map(str, result.quarantined))}; their results "
            "are missing — rerun with --resume to retry them",
            err=True,
        )
    if args.telemetry:
        _print(f"telemetry event log -> {args.telemetry}")
        if worker_prefix is not None:
            _print(f"shard worker logs -> {worker_prefix}.shard*.jsonl")
    if push_to is not None and on_progress is not None:
        # Final push so the dashboard shows the completed study even when
        # progress was shard-granular (or single-shard, with no
        # mid-study callbacks at all).
        if on_progress():
            _print(f"pushed study metrics to {push_to[0]}:{push_to[1]}")
        else:
            _print(
                f"warning: metrics push to {push_to[0]}:{push_to[1]} failed",
                err=True,
            )
    return 0


def _cmd_harvest(args: argparse.Namespace) -> int:
    from repro.scheduler import FleetConfig, run_fleet

    config = FleetConfig(
        policy=args.policy,
        clients=args.clients,
        epochs=args.epochs,
        epoch_seconds=args.epoch_seconds,
        budget=args.budget,
        seed=args.seed,
        cooldown_epochs=args.cooldown,
    )
    try:
        n_shards = resolve_shards(args.shards, config.clients)
    except StudyError as exc:
        raise SchedulerError(str(exc)) from None
    push_to = (
        _parse_hostport(args.push_gateway, "--push-gateway")
        if args.push_gateway
        else None
    )
    hub: Telemetry | None = None
    if args.telemetry:
        hub = Telemetry.to_path(args.telemetry)
    elif push_to is not None:
        hub = Telemetry()
    on_progress = None
    if push_to is not None and hub is not None:
        pusher = _gateway_pusher(
            push_to, f"harvest-{config.policy}-seed{config.seed}", hub
        )

        def on_progress(done: int, total: int) -> None:
            pusher()

    fleet_kwargs = dict(
        shards=n_shards,
        max_workers=args.workers,
        on_progress=on_progress,
    )
    try:
        if hub is not None:
            with use_telemetry(hub):
                board = run_fleet(config, **fleet_kwargs)
                if push_to is not None:
                    pusher()  # final snapshot carries the full scoreboard
        else:
            board = run_fleet(config, **fleet_kwargs)
    except KeyboardInterrupt:
        _print("interrupted", err=True)
        return 130
    if args.out:
        Path(args.out).write_text(board.to_json())
    _print(
        f"harvest[{config.policy}]: {config.clients} clients x "
        f"{config.epochs} epochs, budget {config.budget:g}, "
        f"seed {config.seed}"
    )
    _print(
        f"  harvested {board.harvested_resource_hours:.1f} resource-hours, "
        f"{board.discomforts} discomfort events "
        f"(rate {board.discomfort_rate:.4f}/decision), "
        f"{board.denials} admissions denied"
    )
    rate = board.decisions / board.elapsed_s if board.elapsed_s > 0 else 0.0
    _print(
        f"  {n_shards} shard(s), {board.elapsed_s:.2f}s wall "
        f"({rate:.0f} decisions/s)"
    )
    if args.out:
        _print(f"  scoreboard -> {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.cdf import Observations
    from repro.analysis.fullreport import full_report

    # The report reads no load trace, so each run drops its trace as it
    # is read; traces are most of a store's bytes.
    store = ResultStore(args.results)
    table = Observations(replace(run, load_trace={}) for run in store)
    if not len(table):
        _print("no runs found", err=True)
        return 1
    _print(full_report(table, include_cdf_plots=not args.no_plots))
    return 0


def _cmd_testcase_edit(args: argparse.Namespace) -> int:
    store = TestcaseStore(args.store)
    testcase = store.get(args.id)
    if args.scale is not None:
        testcase = scale_levels(testcase, args.scale)
    if args.clip is not None:
        testcase = clip_levels(testcase, args.clip)
    if args.crop_start is not None or args.crop_end is not None:
        start = args.crop_start or 0.0
        end = args.crop_end if args.crop_end is not None else testcase.duration
        testcase = crop(testcase, start, end)
    if args.speed is not None:
        testcase = retime(testcase, args.speed)
    if args.merge:
        testcase = merge(testcase, store.get(args.merge))
    if args.new_id:
        testcase = with_id(testcase, args.new_id)
    store.add(testcase)
    _print(f"wrote testcase {testcase.testcase_id!r} "
          f"({testcase.duration:g}s, {len(testcase.functions)} resource(s))")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """Run a UUCS client against a TCP server for a simulated span."""
    from repro.apps import ALL_TASKS
    from repro.client.client import ClientConfig, UUCSClient
    from repro.faults import (
        FaultInjectingTransport,
        FaultPlan,
        RetryingTransport,
        RetryPolicy,
    )
    from repro.machine.machine import SimulatedMachine
    from repro.machine.specs import MachineSpec
    from repro.users.mechanistic import MechanisticUser
    from repro.users.population import sample_profile
    from repro.util.rng import derive_rng

    rng = derive_rng(args.seed, "cli-client")
    spec = (
        MachineSpec.dell_gx270()
        if args.machine == "dell"
        else MachineSpec.random_internet_host(rng)
    )
    machine = SimulatedMachine(spec)
    profile = sample_profile(args.user, rng)
    telemetry = Telemetry.to_path(args.telemetry) if args.telemetry else None
    push_to: tuple[str, int] | None = None
    if args.push_gateway:
        push_to = _parse_hostport(args.push_gateway, "--push-gateway")
        if telemetry is None:
            telemetry = Telemetry()  # pushing implies collecting metrics
    # Resilient transport stack, innermost first: a TCP client that
    # redials dropped connections, optionally chaos, then retries.
    transport = TCPClientTransport(args.host, args.port, telemetry=telemetry)
    if args.chaos:
        transport = FaultInjectingTransport(
            transport,
            FaultPlan.parse(args.chaos),
            seed=derive_rng(args.chaos_seed, "cli-client-chaos"),
            telemetry=telemetry,
        )
    transport = RetryingTransport(
        transport,
        RetryPolicy(max_attempts=max(1, args.retries)),
        seed=derive_rng(args.seed, "cli-client-retry"),
        telemetry=telemetry,
    )
    try:
        client = UUCSClient(
            ClientConfig(
                root=Path(args.root),
                user_id=args.user,
                mean_execution_interval=args.interval,
            ),
            transport,
            seed=rng,
            telemetry=telemetry,
        )
        client.register(spec.snapshot())
        first = client.try_sync()
        if not first.ok:
            _print(f"warning: initial sync failed: {first.error}", err=True)
        if not len(client.testcases):
            raise ProtocolError(
                "no testcases available (sync failed and the local store "
                "is empty)"
            )
        _print(f"registered {client.client_id[:8]}..., "
              f"downloaded {first.downloaded} testcases")
        task = ALL_TASKS[int(rng.integers(0, len(ALL_TASKS)))]
        user = MechanisticUser(profile, task.jitter_sensitivity, seed=rng)
        runs = client.run_random(
            args.duration, user, machine.interactivity_model(task),
            task=task.name,
        )
        final = client.try_sync()
        discomforts = sum(r.discomforted for r in runs)
        _print(f"executed {len(runs)} runs as '{task.name}' "
              f"({discomforts} discomforts), uploaded {final.uploaded}")
        if not final.ok:
            _print(
                f"warning: final sync failed ({final.pending} results "
                f"queued locally for the next run): {final.error}",
                err=True,
            )
        if push_to is not None:
            pushed = client.push_metrics(*push_to)
            if pushed < 0:
                _print(
                    f"warning: metrics push to "
                    f"{push_to[0]}:{push_to[1]} failed", err=True,
                )
            else:
                _print(f"pushed {pushed} metrics to {push_to[0]}:{push_to[1]}")
    finally:
        transport.close()
        if telemetry is not None:
            telemetry.close()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validate import validate_runs

    report = validate_runs(ResultStore(args.results))
    _print(report.render())
    return 0 if report.ok else 1


def _cmd_import_db(args: argparse.Namespace) -> int:
    with ResultDatabase(args.database) as db:
        count = db.import_runs(ResultStore(args.results))
    _print(f"imported {count} runs into {args.database}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.telemetry.exporter import MetricsExporter

    telemetry: Telemetry | None = None
    if args.metrics_port is not None or args.telemetry:
        telemetry = (
            Telemetry.to_path(args.telemetry) if args.telemetry else Telemetry()
        )
    server = UUCSServer(args.root, seed=args.seed, telemetry=telemetry)
    if args.library:
        server.add_testcases(generate_library(args.library, seed=args.seed))
    transport = AsyncioServerTransport(
        server, args.host, args.port, max_connections=args.max_connections
    )
    host, port = transport.address
    _print(f"UUCS server on {host}:{port} ({len(server.testcases)} testcases)")
    chaos = None
    if args.chaos:
        from repro.faults import ChaosTCPProxy, FaultPlan
        from repro.util.rng import derive_rng

        chaos = ChaosTCPProxy(
            (host, port),
            FaultPlan.parse(args.chaos),
            seed=derive_rng(args.chaos_seed, "serve-chaos"),
            host=args.host,
            telemetry=telemetry,
        )
        chost, cport = chaos.address
        _print(f"chaos proxy on {chost}:{cport} (faults: {args.chaos})")
    exporter = None
    if args.metrics_port is not None:
        exporter = MetricsExporter(
            server.telemetry.metrics, args.host, args.metrics_port,
            rollups=server.rollups,
            stale_after=args.stale_after,
            evict_after=args.evict_after if args.evict_after > 0 else None,
        )
        mhost, mport = exporter.address
        _print(f"metrics endpoint on {mhost}:{mport}")
        _print(f"fleet dashboard on http://{mhost}:{mport}/")
    if args.telemetry:
        _print(f"telemetry event log -> {args.telemetry}")
    try:
        import threading

        threading.Event().wait(args.timeout if args.timeout > 0 else None)
    except KeyboardInterrupt:
        pass
    finally:
        if chaos is not None:
            chaos.close()
        transport.close()
        if exporter is not None:
            exporter.close()
        if telemetry is not None:
            telemetry.close()
    return 0


def _cmd_metrics_summary(args: argparse.Namespace) -> int:
    # Lenient by design: crashed writers truncate JSONL tails, and an
    # operator asking for a summary wants whatever survives, not a stack
    # trace.  Bad lines are skipped with a stderr warning; exit stays 0.
    # Unlike `uucs trace`, every span event counts, with or without an id.
    from collections import Counter

    from repro.telemetry.events import read_events_lenient
    from repro.telemetry.traces import SpanRecord, render_span_stats
    from repro.util.tables import TextTable

    events, problems = read_events_lenient(args.path)
    counts = Counter(event.name for event in events)
    table = TextTable("Event counts", ["event", "count"])
    for name in sorted(counts):
        table.add_row(name, counts[name])
    spans = []
    for event in events:
        if event.name != "span":
            continue
        try:
            spans.append(SpanRecord.from_event(event))
        except (TypeError, ValueError):
            problems.append(
                f"span {event.fields.get('span')!r} has non-numeric "
                "duration/depth; skipped"
            )
    for problem in problems:
        _print(f"warning: {problem}", err=True)
    _print(table.render())
    if spans:
        _print("")
        _print(render_span_stats(spans))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    # Lenient like metrics-summary: assemble whatever the logs yield and
    # warn (exit 0) about what they couldn't — except when the user named
    # a specific trace or no spans survived at all, where silence would
    # mask an operator error (wrong id, wrong files).
    from repro.telemetry.traces import (
        assemble_traces,
        load_spans,
        render_critical_path,
        render_span_stats,
        render_trace_list,
        render_trace_tree,
        write_chrome_trace,
    )

    records, problems = load_spans(args.paths)
    traces, assembly_problems = assemble_traces(records)
    for problem in problems + assembly_problems:
        _print(f"warning: {problem}", err=True)
    if not traces:
        _print("no spans found in the given logs", err=True)
        return 1
    if args.trace:
        selected = [t for t in traces if t.trace_id == args.trace]
        if not selected:
            known = ", ".join(t.trace_id for t in traces[:10])
            _print(
                f"error: no trace {args.trace!r} in the given logs "
                f"(found: {known})",
                err=True,
            )
            return 1
    else:
        selected = traces
    _print(render_trace_list(selected))
    _print("")
    _print(render_span_stats(r for t in selected for r in t.spans))
    # The tree + critical path are per-trace views; without --trace,
    # focus on the largest assembly (first after the sort) so a log
    # full of tiny request traces still prints something useful.
    focus = selected[0]
    _print("")
    _print(render_trace_tree(focus))
    _print("")
    _print(render_critical_path(focus))
    if args.chrome:
        write_chrome_trace(selected, args.chrome)
        _print(f"chrome trace-event JSON -> {args.chrome}")
    return 0


def _cmd_clients(args: argparse.Namespace) -> int:
    from repro.telemetry.aggregate import fetch_clients
    from repro.util.tables import TextTable, format_float

    rows = fetch_clients(args.host, args.port)
    table = TextTable(
        f"Clients of {args.host}:{args.port}",
        ["client", "registered", "syncs", "results", "discomforts",
         "bytes in", "bytes out", "pushes", "last seen"],
    )
    for row in rows:
        table.add_row(
            row.client_id,
            format_float(row.registered_at, 1),
            row.syncs,
            row.results,
            row.discomforts,
            row.bytes_read,
            row.bytes_written,
            row.pushes,
            format_float(row.last_seen, 1),
        )
    _print(table.render())
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.telemetry.dashboard import TopDashboard

    dashboard = TopDashboard(args.host, args.port, interval=args.interval)
    dashboard.run(iterations=args.iterations, clear=not args.no_clear)
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    """Point a browser at an exporter's live web fleet dashboard.

    Validates that the exporter is reachable and serving the web layer
    (one ``/fleet`` fetch), prints a one-frame fleet summary and the
    dashboard URL, and optionally opens the system browser.  The page
    itself then stays live over SSE; ``--refresh`` only sets the page's
    safety-net reconcile interval.
    """
    from repro.telemetry.aggregate import fetch_fleet
    from repro.telemetry.dashboard import TopDashboard

    fleet = fetch_fleet(args.host, args.port)
    url = f"http://{args.host}:{args.port}/"
    if args.refresh > 0:
        url += f"?refresh={args.refresh:g}"
    totals = fleet.get("totals")
    if isinstance(totals, dict):
        _print(
            f"fleet: {totals.get('active', 0)} active / "
            f"{totals.get('stale', 0)} stale / "
            f"{totals.get('evicted', 0)} evicted clients, "
            f"{totals.get('discomforts', 0):g} discomfort events"
        )
    summary = TopDashboard._render_fleet(fleet)
    if summary:
        _print(summary)
    study = fleet.get("study")
    if isinstance(study, dict):
        ratio = float(study.get("progress_ratio") or 0.0)
        eta = study.get("eta_s")
        _print(
            f"study: {ratio * 100:.0f}% complete"
            + (f", ETA {float(eta):.0f}s" if eta is not None else "")
        )
    _print(f"dashboard -> {url}")
    if args.open:
        import webbrowser

        if not webbrowser.open(url):
            _print("warning: could not open a browser", err=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uucs",
        description="Understanding User Comfort System reproduction toolchain",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("testcase-gen", help="generate testcases")
    gen.add_argument("--store", default="testcases", help="testcase store dir")
    gen.add_argument("--library", type=int, default=0, help="generate N library testcases")
    gen.add_argument("--shape", default="ramp",
                     choices=["step", "ramp", "sine", "sawtooth", "constant", "blank"])
    gen.add_argument("--resource", default="cpu")
    gen.add_argument("--level", type=float, default=1.0)
    gen.add_argument("--duration", type=float, default=120.0)
    gen.add_argument("--breakpoint", type=float, default=40.0)
    gen.add_argument("--period", type=float, default=30.0)
    gen.add_argument("--id", default="")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_testcase_gen)

    view = sub.add_parser("testcase-view", help="inspect a stored testcase")
    view.add_argument("id")
    view.add_argument("--store", default="testcases")
    view.set_defaults(func=_cmd_testcase_view)

    edit = sub.add_parser("testcase-edit", help="derive a new testcase")
    edit.add_argument("id")
    edit.add_argument("--store", default="testcases")
    edit.add_argument("--scale", type=float, default=None,
                      help="multiply all levels")
    edit.add_argument("--clip", type=float, default=None,
                      help="clip levels to a ceiling")
    edit.add_argument("--crop-start", type=float, default=None)
    edit.add_argument("--crop-end", type=float, default=None)
    edit.add_argument("--speed", type=float, default=None,
                      help="retime by this factor")
    edit.add_argument("--merge", default="",
                      help="merge with another stored testcase id")
    edit.add_argument("--new-id", default="")
    edit.set_defaults(func=_cmd_testcase_edit)

    cli_client = sub.add_parser("client", help="run a client against a server")
    cli_client.add_argument("--host", default="127.0.0.1")
    cli_client.add_argument("--port", type=int, required=True)
    cli_client.add_argument("--root", default="client")
    cli_client.add_argument("--user", default="cli-user")
    cli_client.add_argument("--machine", choices=["dell", "random"],
                            default="random")
    cli_client.add_argument("--duration", type=float, default=3600.0,
                            help="simulated seconds of operation")
    cli_client.add_argument("--interval", type=float, default=600.0,
                            help="mean seconds between executions")
    cli_client.add_argument("--seed", type=int, default=0)
    cli_client.add_argument("--telemetry", default="", metavar="PATH",
                            help="write a JSON-lines telemetry event log to PATH")
    cli_client.add_argument("--push-gateway", default="", metavar="HOST:PORT",
                            help="POST the client's metrics snapshot to this "
                                 "metrics endpoint after the run")
    cli_client.add_argument("--retries", type=int, default=4,
                            help="attempts per request before giving up "
                                 "(1 = no retries)")
    cli_client.add_argument("--chaos", default="", metavar="SPEC",
                            help="inject transport faults, e.g. "
                                 "'drop=0.2,dup=0.1,disconnect=0.05' "
                                 "(knobs: drop, drop-ack, dup, corrupt, "
                                 "truncate, disconnect, delay, delay_s, all)")
    cli_client.add_argument("--chaos-seed", type=int, default=0,
                            help="seed for the fault-injection schedule")
    cli_client.set_defaults(func=_cmd_client)

    study = sub.add_parser("study", help="run the controlled study")
    study.add_argument("--users", type=int, default=33)
    study.add_argument("--seed", type=int, default=2004)
    study.add_argument("--engine", default="analytic",
                       choices=sorted(ENGINES),
                       help="session engine: 'batch' advances whole "
                            "(task, testcase) cells as numpy arrays — "
                            "byte-identical records, ~30x the runs/s "
                            "at fleet scale (default: analytic)")
    study.add_argument("--results", default="results")
    study.add_argument("--shards", default="1", metavar="N|auto",
                       help="partition users across N worker processes, "
                            "byte-identical results for any N; 'auto' sizes "
                            "the pool from os.cpu_count(), clamped to the "
                            "user count")
    study.add_argument("--workers", type=int, default=None,
                       help="max concurrent shard worker processes "
                            "(default: one per shard)")
    study.add_argument("--resume", action="store_true",
                       help="resume an interrupted study from its checkpoint "
                            "manifest: shards whose bytes verify against the "
                            "store are salvaged, the rest recomputed; the "
                            "final store is byte-identical to an "
                            "uninterrupted run")
    study.add_argument("--watchdog", type=float, default=None,
                       metavar="SECONDS",
                       help="kill and retry a shard worker that exceeds this "
                            "wall-clock deadline per attempt")
    study.add_argument("--shard-retries", type=int, default=3, metavar="N",
                       help="attempts per shard before the supervisor "
                            "quarantines it (default: 3; applies to "
                            "supervised runs: --shards > 1, --resume, "
                            "--chaos, or --watchdog)")
    study.add_argument("--chaos", default="", metavar="SPEC",
                       help="inject seeded shard-level faults, e.g. "
                            "'kill=0.3,kill_after_runs=4,hang=0.1,corrupt=0.1"
                            ",sigint=0.05' (knobs: kill, kill_after_runs, "
                            "hang, hang_s, corrupt, sigint, all)")
    study.add_argument("--chaos-seed", type=int, default=None,
                       help="seed for the shard fault schedule (default: "
                            "$UUCS_CHAOS_SEED, else 0)")
    study.add_argument("--telemetry", default="", metavar="PATH",
                       help="write a JSON-lines telemetry event log to PATH")
    study.add_argument("--push-gateway", default="", metavar="HOST:PORT",
                       help="push the driver's metrics (live study "
                            "progress included) to a metrics endpoint "
                            "after every shard completes, best-effort")
    study.set_defaults(func=_cmd_study)

    harvest = sub.add_parser(
        "harvest",
        help="simulate a harvesting scheduler over a synthetic fleet",
    )
    harvest.add_argument("--policy", default="cdf",
                         choices=sorted(SCHEDULER_POLICIES),
                         help="borrowing policy: 'static' fixed ceiling, "
                              "'aimd' feedback backoff/recovery, 'cdf' "
                              "comfort-CDF admission control + dynamic "
                              "throttle (default: cdf)")
    harvest.add_argument("--clients", type=int, default=1000,
                         help="fleet size (default: 1000)")
    harvest.add_argument("--epochs", type=int, default=32,
                         help="borrow epochs per client (default: 32)")
    harvest.add_argument("--epoch-seconds", type=float, default=60.0,
                         metavar="S", help="epoch length (default: 60)")
    harvest.add_argument("--budget", type=float, default=0.05,
                         help="target discomfort events per borrow "
                              "decision (default: 0.05)")
    harvest.add_argument("--cooldown", type=int, default=2, metavar="N",
                         help="epochs a client suspends borrowing after "
                              "a discomfort event (default: 2)")
    harvest.add_argument("--seed", type=int, default=2004)
    harvest.add_argument("--shards", default="1", metavar="N|auto",
                         help="fan clients across N supervised worker "
                              "processes; scoreboard bytes identical for "
                              "any N ('auto': os.cpu_count())")
    harvest.add_argument("--workers", type=int, default=None,
                         help="max concurrent shard workers "
                              "(default: one per shard)")
    harvest.add_argument("--out", default="", metavar="PATH",
                         help="write the scoreboard JSON to PATH")
    harvest.add_argument("--telemetry", default="", metavar="PATH",
                         help="write a JSON-lines telemetry event log to "
                              "PATH")
    harvest.add_argument("--push-gateway", default="", metavar="HOST:PORT",
                         help="push scheduler metrics to a metrics "
                              "endpoint as shards complete, best-effort")
    harvest.set_defaults(func=_cmd_harvest)

    analyze = sub.add_parser("analyze", help="regenerate the paper's tables")
    analyze.add_argument("--results", default="results")
    analyze.add_argument("--no-plots", action="store_true",
                         help="omit the text CDF plots")
    analyze.set_defaults(func=_cmd_analyze)

    val = sub.add_parser("validate", help="check a result store's integrity")
    val.add_argument("--results", default="results")
    val.set_defaults(func=_cmd_validate)

    imp = sub.add_parser("import-db", help="import results into sqlite")
    imp.add_argument("--results", default="results")
    imp.add_argument("--database", default="results.sqlite")
    imp.set_defaults(func=_cmd_import_db)

    serve = sub.add_parser("serve", help="run a UUCS server over TCP")
    serve.add_argument("--root", default="server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--max-connections", type=int, default=None,
                       help="serve at most N >= 1 connections at once "
                            "(default: no limit); excess connections queue "
                            "with backpressure instead of failing")
    serve.add_argument("--library", type=int, default=0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--timeout", type=float, default=0.0,
                       help="stop after N seconds (0 = run until interrupted)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="expose the metrics endpoint + web fleet "
                            "dashboard on this port (0 = ephemeral)")
    serve.add_argument("--stale-after", type=float, default=30.0,
                       help="flag a pushed client stale after N seconds "
                            "without a push (default: 30)")
    serve.add_argument("--evict-after", type=float, default=300.0,
                       help="drop a pushed client from fleet aggregates "
                            "after N silent seconds (0 = never; "
                            "default: 300)")
    serve.add_argument("--telemetry", default="", metavar="PATH",
                       help="write a JSON-lines telemetry event log to PATH")
    serve.add_argument("--chaos", default="", metavar="SPEC",
                       help="also run a fault-injecting proxy in front of "
                            "the server (same SPEC as client --chaos); its "
                            "address is printed as 'chaos proxy on ...'")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for the proxy's fault schedule")
    serve.set_defaults(func=_cmd_serve)

    summary = sub.add_parser(
        "metrics-summary",
        help="summarize a JSON-lines telemetry event log",
    )
    summary.add_argument("path", help="event log written by --telemetry")
    summary.set_defaults(func=_cmd_metrics_summary)

    trace = sub.add_parser(
        "trace",
        help="assemble distributed traces from telemetry event logs",
    )
    trace.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="event logs from any number of processes (client, server, "
             "study driver, shard workers); merged before assembly",
    )
    trace.add_argument("--trace", default="", metavar="ID",
                       help="focus one trace id (default: all traces, with "
                            "the tree and critical path of the largest)")
    trace.add_argument("--chrome", default="", metavar="PATH",
                       help="also write Chrome trace-event JSON to PATH "
                            "(open in Perfetto or chrome://tracing)")
    trace.set_defaults(func=_cmd_trace)

    clients = sub.add_parser(
        "clients",
        help="per-client rollups from a server's metrics endpoint",
    )
    clients.add_argument("--host", default="127.0.0.1")
    clients.add_argument("--port", type=int, required=True,
                         help="the server's --metrics-port")
    clients.set_defaults(func=_cmd_clients)

    top = sub.add_parser(
        "top",
        help="live fleet dashboard over a server's metrics endpoint",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True,
                     help="the server's --metrics-port")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N frames (0 = until Ctrl-C)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")
    top.set_defaults(func=_cmd_top)

    dashboard = sub.add_parser(
        "dashboard",
        help="open the live web fleet dashboard of a metrics endpoint",
    )
    dashboard.add_argument("--host", default="127.0.0.1")
    dashboard.add_argument("--port", type=int, required=True,
                           help="the server's --metrics-port")
    dashboard.add_argument("--open", action="store_true",
                           help="open the dashboard in the system browser")
    dashboard.add_argument("--refresh", type=float, default=30.0,
                           help="page safety-net reconcile interval in "
                                "seconds (0 = pure SSE; default: 30)")
    dashboard.set_defaults(func=_cmd_dashboard)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except ReproError as exc:
        _print(f"error: {exc}", err=True)
        return _exit_code(exc)
    except BrokenPipeError:
        # Downstream consumer (head, less, ...) closed the pipe; the
        # convention is to die quietly with SIGPIPE's exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":
    sys.exit(main())
