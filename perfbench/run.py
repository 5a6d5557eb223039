"""Repository benchmark: study, fleet, sync and harvest workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sync --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Progress goes to stderr.

``--trace 0`` reports the end-to-end metrics, measured with no
instrumentation: the median wall time of one operation, the median CPU
time of one operation (the runner plus any workers it reaped), and
``setup_s``, the median over ``SETUP_PROBES`` fresh interpreters of
interpreter start + import + the workload's set-up.  No tail
percentile is reported: on a shared 2-vCPU host the p90 of the same
workload moved 12-16% between runs, over half the widest bound a
metric may have.

Operations are fixed-size (see ``workloads.py``), so the median
operation time is also the throughput figure.

Every reported time is at the reference host's speed: each operation
(or set-up probe) is scaled by a fixed kernel's time on the same vCPU
just before and just after it (see :class:`HostSpeed`).  The raw times
and the kernel samples go to stderr.

``--trace 1`` reports per-layer self time in microseconds per operation
(see ``layers.py``) for every layer of every workload: the named
workload is traced for ``--seconds``, and each other workload for a
short ``SIDE_OPS`` pass, so every run prints the whole layer table.
The traced operation's median time is reported beside it; its distance
from ``op_p50_ms`` in an untraced run is the tracing overhead.  Study
and sync also report ``rss_growth_kb_per_op``: how much a runner's
resident set grows per operation, the cost a long-lived process pays
and the short runners (see :func:`measure`) do not.

All working files live under ``.perfbench_work/`` in the repository and
are removed on exit.  Run outside a repository checkout (no
``src/repro``), the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Untimed operations in the parent before runners fork, so lazy
#: imports happen once.
WARMUP_OPS = 1
#: Fresh interpreters whose set-up time is measured; the median is
#: reported.
SETUP_PROBES = 5
#: Operations in the traced pass of each workload other than the one
#: named on the command line.
SIDE_OPS = {"study": 2, "fleet": 3, "sync": 40, "harvest": 2}
#: Most seconds between host-speed samples in a runner; operations
#: longer than this get a sample just before and just after them.
SAMPLE_EVERY_S = 0.25

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "cpu_p50_ms": "ms",
    "setup_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def rss_kb() -> float:
    """Resident set size of this process, KiB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


#: A fixed JSON round trip and dict build: the kind of work the program
#: does, and none of its code.
_KERNEL_DATA = [[i * 0.37 + j / 7.0 for j in range(50)] for i in range(80)]


def _kernel_seconds() -> float:
    """Mean of two timings of the reference kernel, GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            for _ in range(4):
                table = {}
                for i, row in enumerate(json.loads(json.dumps(_KERNEL_DATA))):
                    for j, value in enumerate(row):
                        table[i, j] = value * 2.0
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.fmean(times)


def _kernel_server(conn) -> None:
    for _ in range(8):  # past the allocator's first-touch costs
        _kernel_seconds()
    while (cpu := conn.recv()) is not None:
        os.sched_setaffinity(0, {cpu})
        conn.send(_kernel_seconds())


class HostSpeed:
    """How fast one vCPU of the shared host runs right now.

    The reference host is a shared VM whose vCPUs each slow to between
    1.1x and 1.8x their full-speed time in plateaus of one to a few
    seconds (other tenants), with the share of slow time drifting over
    minutes.  CPU time slows with wall time, so raw medians of one
    program moved by up to 2x between runs.

    Operations therefore run pinned to one vCPU, ``CPU``, and a helper
    process times a fixed kernel on that same vCPU whenever asked.  The
    helper is forked before the program is imported and has a small,
    clean heap of its own: timed inside a measuring process, the same
    kernel read up to 2x slower after an operation than before it,
    because of the heap the operation left behind.
    """

    #: The kernel's time on the reference host (a shared 2-vCPU Xeon VM)
    #: at full speed, seconds.
    REFERENCE_S = 0.0150
    #: How set-up slows with the kernel: by its slowdown to this power.
    #: Each workload has its own power for its operations
    #: (``Workload.SPEED_POWER``).  Set-up is mostly imports, which wait
    #: on page faults and file reads that slow less than the kernel's
    #: pure interpreter work; re-scaling ten logged runs of each
    #: workload at powers 0.3-1.0 gave the smallest run-to-run spread
    #: of set-up time at 0.65.
    SETUP_POWER = 0.65
    CPU = max(os.sched_getaffinity(0))

    @classmethod
    def factor(cls, before: float, after: float, power: float) -> float:
        """Factor to the reference speed for work between two samples."""
        return (cls.REFERENCE_S / statistics.fmean((before, after))) ** power

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_kernel_server, args=(child,))
        self._proc.start()
        child.close()

    def kernel_seconds(self) -> float:
        """The kernel's time on ``CPU`` now.  Only one process may ask
        at a time: the parent between runners, or the live runner."""
        self._conn.send(self.CPU)
        return self._conn.recv()

    def wake(self) -> None:
        """Run the kernel once, untimed, on ``CPU``.

        The first sample after ``CPU`` has sat idle for a few seconds
        read up to 2.5x slower than the next ones, which skewed the
        first operation's factor; every measured pass starts with this
        instead.
        """
        self.kernel_seconds()

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._conn.close()
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


class Tally:
    """Operation outcomes of one measured pass, each with the host-speed
    factor of the kernel samples taken just before and just after it,
    at ``power`` (see :meth:`HostSpeed.factor`)."""

    def __init__(self, power: float):
        self.power = power
        self.times: list[float] = []
        self.cpu: list[float] = []
        self.factors: list[float] = []
        self.kernels: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.rss_kb = 0.0
        self.rss_ops = 0
        self._open = 0  # ops still waiting for the sample after them

    def add(self, row: tuple) -> None:
        """Take one row, in the order the runner sent it."""
        if row[0] == "speed":
            if self._open:
                factor = HostSpeed.factor(self.kernels[-1], row[1], self.power)
                self.factors.extend([factor] * self._open)
                self._open = 0
            self.kernels.append(row[1])
            return
        if row[0] == "rss":
            self.rss_kb += row[1]
            self.rss_ops += row[2]
            return
        wall, cpu, items, error = row
        self.attempted += 1
        if error is not None:
            self.failed += 1
            log(error)
            return
        self.times.append(wall)
        self.cpu.append(cpu)
        self.items += items
        self._open += 1

    def scaled(self, values: list[float]) -> float:
        """Median of ``values``, each at the reference host's speed."""
        return statistics.median(v * f for v, f in zip(values, self.factors))


def timed_op(workload, i: int, clock=None) -> tuple:
    """Run op ``i``: ``(wall_s, cpu_s, items, error or None)``."""
    try:
        workload.prepare(i)
        if clock is not None:
            clock.active = True
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        items = workload.op(i)
        t1 = time.perf_counter()
        cpu1 = cpu_seconds()
        if clock is not None:
            clock.active = False
        return t1 - t0, cpu1 - cpu0, items, workload.check(i)
    except Exception:
        if clock is not None:
            clock.active = False
        return 0.0, 0.0, 0, traceback.format_exc()


def runner_main(workload, first: int, count: int, deadline: float | None,
                clock, speed: HostSpeed, conn) -> None:
    """Forked runner: open the workload, run op ``first`` untimed if the
    workload asks for it, then send one row per timed op until ``count``
    ops or ``deadline``, the resident-set growth over those ops, and the
    workload's closing check.

    The untimed op takes the fork's one-off costs (copy-on-write faults,
    fresh connections), so each timed op position starts from the same
    state in every runner.  Workloads with long ops skip it and run one
    op per runner instead, so every op is a runner's first.

    The runner, and every thread it starts, runs on ``HostSpeed.CPU``.
    """
    os.sched_setaffinity(0, {HostSpeed.CPU})
    if clock is not None:
        clock.fork_child()
    try:
        workload.open()
        try:
            if workload.RUNNER_WARMUP:
                error = timed_op(workload, first)[3]
                if error is not None:
                    conn.send((0.0, 0.0, 0, f"warm-up op failed: {error}"))
                    return
                first += 1
            done = 0
            rss0 = rss_kb()
            sampled = float("-inf")
            for i in range(first, first + count):
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                if time.perf_counter() - sampled >= SAMPLE_EVERY_S:
                    conn.send(("speed", speed.kernel_seconds()))
                    sampled = time.perf_counter()
                conn.send(timed_op(workload, i, clock))
                done += 1
            if done:
                conn.send(("speed", speed.kernel_seconds()))
                conn.send(("rss", rss_kb() - rss0, done))
            error = workload.finish()
            if error is not None:
                conn.send((0.0, 0.0, 0, error))
        finally:
            workload.close()
    except Exception:
        conn.send((0.0, 0.0, 0, traceback.format_exc()))
    finally:
        if clock is not None:
            clock.dump()
        conn.close()


def measure(workload, speed: HostSpeed, seconds: float | None,
            ops: int | None = None, clock=None) -> Tally:
    """Run timed ops for ``seconds`` (or exactly ``ops``) in a series of
    forked runner processes of at most ``workload.RUNNER_OPS`` ops each.

    Every runner starts from the same warmed-up parent, so the
    program's process-lifetime state — its caches, the memory they hold,
    the garbage collector's counters — is the same at the start of every
    batch, as it is for each short-lived ``uucs`` process.  Fork, not
    spawn: the runner must inherit the imported program and, in a traced
    pass, its wrapped layers.
    """
    ctx = multiprocessing.get_context("fork")
    deadline = None if seconds is None else time.perf_counter() + seconds
    tally = Tally(workload.SPEED_POWER)
    first = WARMUP_OPS
    speed.wake()
    while True:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        count = workload.RUNNER_OPS
        if ops is not None:
            count = min(count, ops - tally.attempted)
            if count <= 0:
                break
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=runner_main,
            args=(workload, first, count, deadline, clock, speed, send),
        )
        proc.start()
        send.close()
        rows = 0
        try:
            while True:
                try:
                    row = recv.recv()
                except EOFError:
                    break
                tally.add(row)
                rows += 1
        finally:
            recv.close()
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()
                proc.join()
        if proc.exitcode != 0:
            raise RuntimeError(
                f"{workload.name}: runner exited {proc.exitcode} "
                f"after {rows} ops"
            )
        first += count + int(workload.RUNNER_WARMUP)
    return tally


def load_workload(name: str, seed: int, work: Path):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, work / name)


def open_workload(name: str, seed: int, work: Path):
    """Set a workload up and warm it up in this process, ready to fork
    runners."""
    workload = load_workload(name, seed, work)
    workload.setup()
    try:
        workload.inputs()
        workload.references()
        for i in range(WARMUP_OPS):
            error = timed_op(workload, i)[3]
            if error is not None:
                raise RuntimeError(f"{name}: warm-up op failed: {error}")
        error = workload.finish()
        if error is not None:
            raise RuntimeError(f"{name}: warm-up check failed: {error}")
    finally:
        workload.close()
    return workload


def setup_probe(name: str, seed: int, work: Path) -> float:
    """In a fresh interpreter: seconds from start to a set-up workload."""
    workload = load_workload(name, seed, work)
    try:
        workload.setup()
        return time.perf_counter() - STARTED
    finally:
        workload.close()


def setup_seconds(name: str, seed: int, work: Path,
                  speed: HostSpeed) -> Tally:
    """Set-up times of fresh interpreters pinned to ``HostSpeed.CPU``,
    with the kernel timed between them."""
    probes = Tally(HostSpeed.SETUP_POWER)
    speed.wake()
    probes.add(("speed", speed.kernel_seconds()))
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--setup-probe", str(work / f"probe{k}"),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: os.sched_setaffinity(0, {HostSpeed.CPU}),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        spent = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        probes.add((spent, 0.0, 0, None))
        probes.add(("speed", speed.kernel_seconds()))
    return probes


def end_to_end(name: str, seed: int, seconds: float, work: Path,
               speed: HostSpeed) -> dict:
    probes = setup_seconds(name, seed, work, speed)
    tally = measure(open_workload(name, seed, work), speed, seconds)
    times = tally.times
    if len(times) < 2:
        raise RuntimeError(f"{name}: fewer than 2 successful operations")
    values = {
        "op_p50_ms": tally.scaled(times) * 1e3,
        "cpu_p50_ms": tally.scaled(tally.cpu) * 1e3,
        "setup_s": probes.scaled(probes.times),
    }
    log(
        f"{name}: {len(times)} ops; raw op ms "
        f"{[round(t * 1e3) for t in times]}; kernel ms "
        f"{[round(k * 1e3, 1) for k in tally.kernels]}; raw set-up probes "
        f"{[round(p, 3) for p in probes.times]} s, kernel ms "
        f"{[round(k * 1e3, 1) for k in probes.kernels]}"
    )
    metrics = {
        key: {"value": value, "unit": END_TO_END_UNITS[key]}
        for key, value in values.items()
    }
    return {"tally": tally, "metrics": metrics}


def traced(name: str, seed: int, work: Path, speed: HostSpeed,
           seconds: float | None, ops: int | None) -> tuple[Tally, dict]:
    """One traced pass; times at the reference host's speed."""
    from layers import LayerClock

    workload = open_workload(name, seed, work)
    clock = LayerClock(work / f"{name}-spool")
    try:
        workload.trace(clock)
        tally = measure(workload, speed, seconds, ops, clock)
    finally:
        clock.restore()
    clock.collect()
    done = len(tally.times)
    if done == 0:
        raise RuntimeError(f"{name}: no successful traced operation")
    scale = statistics.fmean(tally.factors)
    layers = {
        key: (value * scale, unit)
        for key, (value, unit) in workload.layers(clock, done).items()
    }
    layers[f"{name}.traced_op_ms"] = (tally.scaled(tally.times) * 1e3, "ms")
    layers[f"{name}.items_per_op"] = (tally.items / done, "count")
    if workload.RSS_TRACKED:
        layers[f"{name}.rss_growth_kb_per_op"] = (
            tally.rss_kb / tally.rss_ops, "KiB"
        )
    return tally, layers


def per_layer(name: str, seed: int, seconds: float, work: Path,
              speed: HostSpeed) -> dict:
    from workloads import WORKLOADS

    tally, layers = traced(name, seed, work, speed, seconds, None)
    for other in WORKLOADS:
        if other != name:
            side, more = traced(other, seed, work, speed, None, SIDE_OPS[other])
            tally.attempted += side.attempted
            tally.failed += side.failed
            layers.update(more)
    metrics = {
        key: {"value": value, "unit": unit}
        for key, (value, unit) in sorted(layers.items())
    }
    return {"tally": tally, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("study", "fleet", "sync", "harvest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program source at {SRC / 'repro'}: run from a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    if args.setup_probe is not None:
        spent = setup_probe(args.workload, args.seed, Path(args.setup_probe))
        print(json.dumps({"setup_s": spent}))
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    speed = HostSpeed()
    try:
        run = per_layer if args.trace else end_to_end
        result = run(args.workload, args.seed, args.seconds, work, speed)
    finally:
        speed.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    tally = result["tally"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
