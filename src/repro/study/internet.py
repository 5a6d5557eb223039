"""The Internet-wide study (paper §4).

"Any individual with a Windows computer is welcome to ... download and run
a copy of the UUCS client."  We simulate that fleet: heterogeneous hosts,
one synthetic user each, clients registering with a shared server, hot
syncing a growing random sample from a large testcase library
("predominantly from the M/M/1 and M/G/1 models"), and executing testcases
at Poisson arrivals while the user goes about one of the modelled tasks.

Users here are *mechanistic* (:class:`repro.users.mechanistic.MechanisticUser`):
they react to machine-reported slowdown and jitter, so the raw power of the
host (paper question 6) genuinely changes outcomes — a faster host absorbs
more CPU contention before its user feels anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.apps.registry import ALL_TASKS
from repro.client.client import ClientConfig, UUCSClient
from repro.client.scheduler import PoissonArrivals
from repro.core.exercise import expexp, exppar, ramp, sawtooth, sine, step
from repro.core.resources import CONTENTION_LIMITS, Resource
from repro.core.run import TestcaseRun
from repro.core.testcase import Testcase
from repro.errors import StudyError
from repro.machine.machine import SimulatedMachine
from repro.machine.specs import MachineSpec
from repro.server.server import InProcessTransport, UUCSServer
from repro.users.mechanistic import MechanisticUser
from repro.users.population import sample_profile
from repro.util.rng import SeedLike, derive_rng, ensure_rng
from repro.util.stats import mean_confidence_interval

__all__ = [
    "InternetStudyConfig",
    "SpeedBin",
    "InternetStudyResult",
    "generate_library",
    "host_speed_effect",
    "internet_discomfort_curve",
    "run_internet_study",
]

_STUDIED = (Resource.CPU, Resource.MEMORY, Resource.DISK)


def generate_library(
    n: int,
    seed: SeedLike = None,
    sample_rate: float = 1.0,
) -> list[Testcase]:
    """Generate an Internet-study testcase library.

    Predominantly M/M/1 (``expexp``) and M/G/1 (``exppar``) shapes with a
    spread of parameters, plus steps, ramps, sines, and sawtooths — the
    composition §2.1 describes for the paper's 2000+ testcase library.
    """
    if n < 1:
        raise StudyError(f"library size must be >= 1, got {n}")
    rng = ensure_rng(seed)
    shapes = ["expexp", "exppar", "step", "ramp", "sine", "sawtooth"]
    weights = np.array([0.3, 0.3, 0.1, 0.1, 0.1, 0.1])
    library: list[Testcase] = []
    for i in range(n):
        resource = _STUDIED[int(rng.integers(0, len(_STUDIED)))]
        limit = CONTENTION_LIMITS[resource]
        peak = float(rng.uniform(0.1, 1.0)) * min(limit, 8.0 if limit > 1 else 1.0)
        duration = float(rng.choice([60.0, 120.0, 180.0, 300.0]))
        shape = str(rng.choice(shapes, p=weights))
        if shape == "expexp":
            fn = expexp(
                resource,
                arrival_rate=float(rng.uniform(0.01, 0.2)),
                mean_size=float(rng.uniform(5.0, 60.0)),
                t=duration,
                sample_rate=sample_rate,
                seed=rng,
            )
        elif shape == "exppar":
            fn = exppar(
                resource,
                arrival_rate=float(rng.uniform(0.01, 0.2)),
                shape=float(rng.uniform(1.1, 2.5)),
                scale=float(rng.uniform(2.0, 20.0)),
                t=duration,
                sample_rate=sample_rate,
                seed=rng,
            )
        elif shape == "step":
            fn = step(
                resource, peak, duration, float(rng.uniform(0.1, 0.5)) * duration,
                sample_rate,
            )
        elif shape == "ramp":
            fn = ramp(resource, peak, duration, sample_rate)
        elif shape == "sine":
            fn = sine(
                resource,
                amplitude=peak / 2.0,
                period=float(rng.uniform(10.0, duration)),
                t=duration,
                sample_rate=sample_rate,
            )
        else:
            fn = sawtooth(
                resource, peak, float(rng.uniform(10.0, duration)), duration,
                sample_rate,
            )
        library.append(
            Testcase.single(
                f"inet-{i:05d}-{shape}-{resource.value}",
                fn,
                {"study": "internet"},
            )
        )
    return library


@dataclass(frozen=True)
class InternetStudyConfig:
    """Configuration of the Internet-wide study simulation."""

    #: Participating clients (the paper had "about 100 users").
    n_clients: int = 40
    seed: int = 404
    #: Simulated operation span per client, seconds.
    duration: float = 12.0 * 3600.0
    #: Mean seconds between testcase executions (Poisson arrivals).
    mean_execution_interval: float = 1800.0
    #: Seconds between hot syncs ("user-defined intervals").
    sync_interval: float = 4.0 * 3600.0
    #: Library size on the server.
    library_size: int = 150
    #: New testcases requested per sync.
    sync_want: int = 8

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise StudyError("n_clients must be >= 1")
        if self.duration <= 0 or self.sync_interval <= 0:
            raise StudyError("duration and sync_interval must be positive")


@dataclass(frozen=True)
class InternetStudyResult:
    """Everything the server ends up knowing, plus fleet ground truth."""

    runs: tuple[TestcaseRun, ...]
    specs: dict[str, MachineSpec]  # client_id -> machine
    config: InternetStudyConfig
    library_size: int

    def runs_for_resource(self, resource: Resource) -> list[TestcaseRun]:
        out = []
        for run in self.runs:
            active = [r for r, s in run.shapes.items() if s != "blank"]
            if len(active) == 1 and active[0] is resource:
                out.append(run)
        return out


def _simulate_client(
    index: int,
    config: InternetStudyConfig,
    server: UUCSServer,
    root: Path,
) -> tuple[str, MachineSpec]:
    rng = derive_rng(config.seed, "inet-client", index)
    spec = MachineSpec.random_internet_host(rng)
    machine = SimulatedMachine(spec)
    profile = sample_profile(f"inet-user-{index:04d}", rng)
    client = UUCSClient(
        ClientConfig(
            root=root / f"client-{index:04d}",
            user_id=profile.user_id,
            sync_want=config.sync_want,
            mean_execution_interval=config.mean_execution_interval,
        ),
        InProcessTransport(server),
        seed=rng,
    )
    client.register(spec.snapshot())
    client.hot_sync()
    # The user's foreground task changes between testcase executions; the
    # client syncs whenever a sync interval has elapsed.
    arrivals = PoissonArrivals(config.mean_execution_interval, rng)
    elapsed = 0.0
    next_sync = config.sync_interval
    while True:
        gap = arrivals.next_delay()
        elapsed += gap
        client.advance_clock(gap)
        if elapsed >= config.duration:
            break
        while elapsed >= next_sync:
            client.hot_sync()
            next_sync += config.sync_interval
        task = ALL_TASKS[int(rng.integers(0, len(ALL_TASKS)))]
        user = MechanisticUser(
            profile, jitter_sensitivity=task.jitter_sensitivity, seed=rng
        )
        model = machine.interactivity_model(task)
        testcase = client.testcases.get(arrivals.choose(client.testcases.ids()))
        run = client.execute(testcase, user, model, task=task.name)
        elapsed += run.end_offset
    client.hot_sync()
    return client.client_id, spec


def run_internet_study(
    config: InternetStudyConfig | None = None,
    root: Path | str | None = None,
) -> InternetStudyResult:
    """Simulate the fleet against one server; returns server-side results.

    ``root`` is a working directory for the server and client stores; a
    temporary directory is used (and cleaned up) when omitted.
    """
    import shutil
    import tempfile

    if config is None:
        config = InternetStudyConfig()
    own_root = root is None
    base = Path(tempfile.mkdtemp(prefix="uucs-inet-")) if own_root else Path(root)
    try:
        server = UUCSServer(
            base / "server", seed=derive_rng(config.seed, "server")
        )
        server.add_testcases(
            generate_library(config.library_size, derive_rng(config.seed, "library"))
        )
        specs: dict[str, MachineSpec] = {}
        for index in range(config.n_clients):
            client_id, spec = _simulate_client(index, config, server, base)
            specs[client_id] = spec
        runs = tuple(server.results)
        return InternetStudyResult(
            runs=runs,
            specs=specs,
            config=config,
            library_size=len(server.testcases),
        )
    finally:
        if own_root:
            shutil.rmtree(base, ignore_errors=True)


def internet_discomfort_curve(
    result: InternetStudyResult, resource: Resource
):
    """Censoring-corrected discomfort curve from Internet-study runs.

    Internet testcases reach wildly different peak levels, so the paper's
    naive CDF (normalize reactions by *all* runs) is biased low at levels
    many runs never explored.  This applies the Kaplan-Meier estimator
    (:mod:`repro.analysis.survival`) to the fleet's runs — the estimator
    the "better estimates for the aggregated resource CDFs" the paper
    plans (§4) actually require.

    Returns ``(km_curve, naive_cdf)`` so callers can report both.
    """
    from repro.analysis.survival import kaplan_meier
    from repro.core.metrics import DiscomfortCDF, DiscomfortObservation

    observations = [
        DiscomfortObservation.from_run(run, resource)
        for run in result.runs_for_resource(resource)
    ]
    if not observations:
        raise StudyError(f"no {resource.value} runs in the study result")
    return kaplan_meier(observations), DiscomfortCDF(observations)


@dataclass(frozen=True)
class SpeedBin:
    """Host-speed quantile bin of the fleet (question 6)."""

    mean_speed: float
    #: Fraction of this bin's runs ending in discomfort.  The primary
    #: speed-effect signal: faster hosts absorb more contention before
    #: their users feel anything, so f_d falls with speed.
    f_d: float
    #: Mean contention at discomfort among reacting runs (``None`` when
    #: none reacted).  Conditional on reacting, so subject to selection:
    #: on fast hosts only the heaviest tasks ever produce reactions.
    c_a: float | None
    n_runs: int


def host_speed_effect(
    result: InternetStudyResult,
    resource: Resource = Resource.CPU,
    n_groups: int = 3,
) -> list[SpeedBin]:
    """Question 6: does raw host power change tolerated contention?

    Groups runs by the host's CPU speed (``n_groups`` quantile bins by
    run count) and summarizes each bin, slowest first.  On mechanistic
    users, faster hosts should show lower ``f_d``.
    """
    rows: list[tuple[float, bool, float]] = []
    for run in result.runs_for_resource(resource):
        spec = result.specs.get(run.context.client_id)
        if spec is None:
            continue
        level = (
            run.discomfort_level(resource) if run.discomforted else float("nan")
        )
        rows.append((spec.cpu_speed, run.discomforted, level))
    if len(rows) < n_groups:
        return []
    rows.sort(key=lambda r: r[0])
    bins = np.array_split(np.arange(len(rows)), n_groups)
    out: list[SpeedBin] = []
    for idx in bins:
        if idx.size == 0:
            continue
        chunk = [rows[i] for i in idx]
        speeds = np.array([c[0] for c in chunk])
        reacted = np.array([c[1] for c in chunk])
        levels = np.array([c[2] for c in chunk if c[1]])
        c_a = None
        if levels.size:
            c_a = mean_confidence_interval(levels).mean
        out.append(
            SpeedBin(
                mean_speed=float(speeds.mean()),
                f_d=float(reacted.mean()),
                c_a=c_a,
                n_runs=int(idx.size),
            )
        )
    return out
