"""The controlled study driver (paper §3).

Reproduces the Northwestern protocol: 33 participants, each spending an
84-minute session on one of two identically configured machines.  After the
questionnaire, handout, and acclimatization (which need no simulation),
each user performs the four tasks in order — Word, Powerpoint, IE, Quake —
for 16 minutes each, during which the UUCS client runs that task's 8
two-minute testcases in per-user random order.

Note on counts: this driver executes the *full* protocol, i.e. 6 non-blank
and 2 blank runs per (user, task).  The paper's Figure 9 reports fewer runs
per task (sessions ended early, runs were discarded); proportions, not raw
counts, are the comparison target (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.apps.registry import TASK_ORDER, get_task
from repro.core.run import RunContext, TestcaseRun
from repro.core.session import record_user_session
from repro.core.testcase import Testcase
from repro.errors import StudyError
from repro.machine.machine import SimulatedMachine
from repro.monitor.base import SimulatedMonitor
from repro.machine.specs import MachineSpec
from repro.study import batch
from repro.study.engine import SESSION_ENGINES, CellTraces, get_session_engine
from repro.study.testcases import STUDY_SAMPLE_RATE, task_testcases
from repro.telemetry import get_telemetry
from repro.users.behavior import BehaviorParams, SimulatedUser
from repro.users.population import sample_population
from repro.users.profile import UserProfile
from repro.users.tolerance import ToleranceTable, paper_calibrated_table
from repro.util.rng import derive_rng

__all__ = [
    "ENGINES",
    "ControlledStudyConfig",
    "StudyFixtures",
    "StudyResult",
    "run_controlled_study",
    "run_user_range",
    "study_fixtures",
]

#: Every engine a config may name: the per-session engines, plus the
#: cell-batched "batch" engine, which :func:`run_user_range` hands the
#: whole user range to.
ENGINES = (*SESSION_ENGINES, "batch")

#: Seconds between testcases (user keeps working; client idles).
_INTER_TESTCASE_GAP = 0.0
#: Session phases before the tasks begin (questionnaire, handout,
#: acclimatization), minutes — only advances the session clock.
_PREAMBLE_MINUTES = 20.0


@dataclass(frozen=True)
class ControlledStudyConfig:
    """Configuration of a controlled-study simulation."""

    #: Number of participants (the paper used 33).
    n_users: int = 33
    #: Master seed; the entire study is deterministic given it.
    seed: int = 2004
    #: Tasks each user performs, in order.
    tasks: tuple[str, ...] = TASK_ORDER
    #: Machine both study seats use (Figure 7's Dell by default).
    machine: MachineSpec = field(default_factory=MachineSpec.dell_gx270)
    #: Tolerance table for the synthetic users (paper-calibrated default).
    table: ToleranceTable = field(default_factory=paper_calibrated_table)
    #: Behavioral constants for the population.
    behavior: BehaviorParams = field(default_factory=BehaviorParams)
    #: Testcase sample rate (Hz).
    sample_rate: float = STUDY_SAMPLE_RATE
    #: Session engine: "analytic" (vectorized closed form, the default),
    #: "loop" (the generic per-sample poll loop), or "batch" (the
    #: cell-batched fast path advancing every user of a (task, testcase)
    #: cell as numpy arrays).  All produce byte-identical runs; see
    #: repro.study.engine and repro.study.batch.
    engine: str = "analytic"

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise StudyError(f"n_users must be >= 1, got {self.n_users}")
        if not self.tasks:
            raise StudyError("at least one task is required")
        if self.engine not in ENGINES:
            raise StudyError(f"unknown engine {self.engine!r}")


@dataclass(frozen=True)
class StudyResult:
    """All runs and participants of one study execution."""

    runs: tuple[TestcaseRun, ...]
    profiles: tuple[UserProfile, ...]
    config: ControlledStudyConfig
    #: Shard indices the sharded supervisor abandoned after exhausting
    #: their retry budget; their users' runs are absent from ``runs``.
    #: Always empty for single-process and fully healthy studies.
    quarantined: tuple[int, ...] = ()

    def runs_for(
        self,
        *,
        task: str | None = None,
        user_id: str | None = None,
        blank: bool | None = None,
    ) -> list[TestcaseRun]:
        """Runs filtered by task, user, and blankness."""
        out = []
        for run in self.runs:
            if task is not None and run.context.task != task:
                continue
            if user_id is not None and run.context.user_id != user_id:
                continue
            if blank is not None and (not run.exercised) != blank:
                continue
            out.append(run)
        return out

    def profile_for(self, user_id: str) -> UserProfile:
        for profile in self.profiles:
            if profile.user_id == user_id:
                return profile
        raise StudyError(f"unknown user {user_id!r}")

    def __iter__(self) -> Iterator[TestcaseRun]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)


@dataclass(frozen=True)
class StudyFixtures:
    """Deterministic shared state of one study execution.

    Everything here is a pure function of the config — machine, per-task
    testcases, and the sampled population — so any process can rebuild
    identical fixtures from the config alone.  That property is what lets
    the sharded engine (:mod:`repro.study.sharded`) recompute fixtures in
    each worker instead of shipping them over the wire.
    """

    machine: SimulatedMachine
    testcases_by_task: dict[str, Sequence[Testcase]]
    profiles: tuple[UserProfile, ...]
    #: ``(task, slot) -> CellTraces``, filled by :meth:`cell_traces`.
    traces: dict[tuple[str, int], CellTraces] = field(
        default_factory=dict, compare=False, repr=False
    )

    def cell_traces(self, task: str, slot: int) -> CellTraces:
        """The full-length traces of ``testcases_by_task[task][slot]`` on
        this machine, computed on the cell's first run and shared by
        every later run of it."""
        cell = self.traces.get((task, slot))
        if cell is None:
            model = get_task(task)
            cell = self.traces[task, slot] = CellTraces(
                self.testcases_by_task[task][slot],
                self.machine.interactivity_model(model),
                SimulatedMonitor(self.machine, model),
            )
        return cell


def study_fixtures(config: ControlledStudyConfig) -> StudyFixtures:
    """Build the fixtures for ``config`` (deterministic, stateless)."""
    return StudyFixtures(
        machine=SimulatedMachine(config.machine),
        testcases_by_task={
            task: task_testcases(task, config.sample_rate)
            for task in config.tasks
        },
        profiles=tuple(
            sample_population(config.n_users, derive_rng(config.seed, "population"))
        ),
    )


def _run_user_session(
    profile: UserProfile,
    config: ControlledStudyConfig,
    fixtures: StudyFixtures,
    user_index: int,
) -> list[TestcaseRun]:
    """One participant's 84-minute session."""
    telemetry = get_telemetry()
    rng = derive_rng(config.seed, "user-session", user_index)
    user = SimulatedUser(
        profile, config.table, config.behavior, seed=derive_rng(config.seed, "user-behavior", user_index)
    )
    run_session = get_session_engine(config.engine)
    # The loop engine measures its traces sample by sample; the analytic
    # engine reads them off the cell's shared full-length traces.
    share_traces = config.engine != "loop"
    machine = fixtures.machine
    testcases_by_task = fixtures.testcases_by_task
    clock = _PREAMBLE_MINUTES * 60.0
    runs: list[TestcaseRun] = []
    for task_name in config.tasks:
        task = get_task(task_name)
        model = machine.interactivity_model(task)
        monitor = SimulatedMonitor(machine, task)
        order = rng.permutation(len(testcases_by_task[task_name]))
        for slot in order.tolist():
            testcase = testcases_by_task[task_name][slot]
            context = RunContext(
                user_id=profile.user_id,
                task=task_name,
                machine_id=machine.spec.name,
                started_at=clock,
                extra={
                    "study": "controlled",
                    **{
                        f"rating_{cat}": level
                        for cat, level in profile.questionnaire().items()
                    },
                },
            )
            shared = (
                {"traces": fixtures.cell_traces(task_name, slot)}
                if share_traces
                else {}
            )
            result = run_session(
                testcase,
                user,
                context,
                model,
                run_id=TestcaseRun.new_run_id(rng),
                monitor=monitor,
                **shared,
            )
            runs.append(result.run)
            clock += testcase.duration + _INTER_TESTCASE_GAP
    if telemetry.enabled:
        record_user_session(telemetry, profile.user_id, runs)
    return runs


def run_user_range(
    config: ControlledStudyConfig,
    start: int,
    stop: int,
    fixtures: StudyFixtures | None = None,
) -> list[TestcaseRun]:
    """Sessions for users ``start <= index < stop``, in index order.

    Every user draws from RNG streams derived as ``derive_rng(config.seed,
    "user-session"/"user-behavior", user_index)``, so the records are
    byte-identical no matter how the index range is partitioned across
    calls or processes — the contract ``tests/shardcheck.py`` enforces.
    """
    if not 0 <= start <= stop <= config.n_users:
        raise StudyError(
            f"user range [{start}, {stop}) outside [0, {config.n_users})"
        )
    if fixtures is None:
        fixtures = study_fixtures(config)
    if config.engine == "batch":
        # The cell-batched engine replaces the whole per-user loop; it
        # honors the same derivation order, so the byte contract above
        # (and the sharded checkpoint spans built on it) is unchanged.
        return batch.run_batch_user_range(config, start, stop, fixtures)
    runs: list[TestcaseRun] = []
    for index in range(start, stop):
        runs.extend(
            _run_user_session(fixtures.profiles[index], config, fixtures, index)
        )
    return runs


def run_controlled_study(
    config: ControlledStudyConfig | None = None,
) -> StudyResult:
    """Execute the controlled study and return every run.

    Deterministic for a fixed config: population, per-user testcase orders,
    thresholds, and noise draws all derive from ``config.seed``.
    """
    if config is None:
        config = ControlledStudyConfig()
    telemetry = get_telemetry()
    with telemetry.span(
        "study.controlled",
        users=config.n_users,
        seed=config.seed,
        engine=config.engine,
    ) as span:
        fixtures = study_fixtures(config)
        runs = run_user_range(config, 0, config.n_users, fixtures)
        span.annotate(runs=len(runs))
        if telemetry.enabled:
            telemetry.emit(
                "study.complete",
                users=len(fixtures.profiles),
                runs=len(runs),
                discomforts=sum(1 for r in runs if r.discomforted),
            )
        return StudyResult(tuple(runs), fixtures.profiles, config)
