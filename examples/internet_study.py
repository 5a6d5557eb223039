"""The Internet-wide study over a real TCP server (§4).

Starts a UUCS server on localhost, publishes a generated testcase library
(predominantly M/M/1 and M/G/1 shapes), connects a small fleet of clients
on heterogeneous simulated hosts, and drives registration, hot syncs,
Poisson testcase executions, and result uploads over the wire.  Finally it
analyzes the server's result store, including the host-speed effect the
controlled study could not measure (paper question 6).

Run:  python examples/internet_study.py
"""

import tempfile
from pathlib import Path

from repro.apps import ALL_TASKS
from repro.client import ClientConfig, UUCSClient
from repro.core import Resource
from repro.machine import MachineSpec, SimulatedMachine
from repro.net import AsyncioServerTransport
from repro.server import UUCSServer
from repro.study import generate_library
from repro.study.internet import InternetStudyResult, host_speed_effect, InternetStudyConfig
from repro.users import MechanisticUser, sample_population
from repro.util.rng import derive_rng
from repro.util.tables import TextTable

N_CLIENTS = 8
SIM_HOURS = 3.0
SEED = 404


def drive_client(index: int, listener, base: Path):
    """One participant: register, sync, run testcases for a few hours."""
    rng = derive_rng(SEED, "client", index)
    spec = MachineSpec.random_internet_host(rng)
    machine = SimulatedMachine(spec)
    profile = sample_population(1, rng)[0]
    transport = listener.connect()
    client = UUCSClient(
        ClientConfig(
            root=base / f"client-{index}",
            user_id=f"inet-user-{index}",
            mean_execution_interval=600.0,
        ),
        transport,
        seed=rng,
    )
    client.register(spec.snapshot())
    client.hot_sync()
    elapsed, runs = 0.0, 0
    while elapsed < SIM_HOURS * 3600.0:
        gap = float(rng.exponential(600.0))
        elapsed += gap
        client.advance_clock(gap)
        if elapsed >= SIM_HOURS * 3600.0:
            break
        task = ALL_TASKS[int(rng.integers(0, len(ALL_TASKS)))]
        user = MechanisticUser(profile, task.jitter_sensitivity, seed=rng)
        ids = client.testcases.ids()
        testcase = client.testcases.get(ids[int(rng.integers(0, len(ids)))])
        run = client.execute(
            testcase, user, machine.interactivity_model(task), task=task.name
        )
        elapsed += run.end_offset
        runs += 1
    client.hot_sync()
    transport.close()
    print(f"  client {index}: host speed {spec.cpu_speed:.2f}x, "
          f"{spec.memory_mb} MB, {runs} runs")
    return client.client_id, spec


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="uucs-example-") as tmp:
        base = Path(tmp)
        server = UUCSServer(base / "server", seed=SEED)
        library = generate_library(60, seed=derive_rng(SEED, "library"))
        server.add_testcases(library)
        listener = AsyncioServerTransport(server)
        host, port = listener.address
        print(f"UUCS server on {host}:{port} with {len(library)} testcases")

        specs = {}
        for index in range(N_CLIENTS):
            client_id, spec = drive_client(index, listener, base)
            specs[client_id] = spec
        listener.close()

        runs = tuple(server.results)
        print(f"\nserver collected {len(runs)} runs from "
              f"{len(server.registry)} registered clients")

        result = InternetStudyResult(
            runs=runs, specs=specs,
            config=InternetStudyConfig(n_clients=N_CLIENTS, seed=SEED),
            library_size=len(library),
        )
        bins = host_speed_effect(result, Resource.CPU, n_groups=2)
        table = TextTable(
            "Host-speed effect on CPU discomfort (question 6)",
            ["mean speed", "f_d", "n runs"],
        )
        for b in bins:
            table.add_row(f"{b.mean_speed:.2f}", f"{b.f_d:.2f}", b.n_runs)
        print("\n" + table.render())
        if len(bins) == 2 and bins[0].f_d > bins[-1].f_d:
            print("faster hosts feel borrowing less, as expected")


if __name__ == "__main__":
    main()
