"""Cross-module integration: the full UUCS pipeline over real transports.

Exercises the chain the paper's Figure 1-2 describe: testcases published
on a server -> clients register and hot sync over TCP -> testcases execute
against simulated machines and users -> results upload -> database import
-> analysis produces comfort metrics.
"""

import pytest

from repro.analysis import ResultDatabase, cell_metrics, metric_tables
from repro.apps import get_task
from repro.client import ClientConfig, UUCSClient
from repro.core.resources import Resource
from repro.machine import MachineSpec, SimulatedMachine
from repro.net import AsyncioServerTransport
from repro.server import UUCSServer
from repro.study.testcases import task_testcases
from repro.users import make_user, sample_population


@pytest.fixture()
def tcp_stack(tmp_path):
    server = UUCSServer(tmp_path / "server", seed=1, sync_batch=8)
    for task in ("word", "quake"):
        server.add_testcases(task_testcases(task))
    listener = AsyncioServerTransport(server)
    yield server, listener
    listener.close()


class TestFullPipelineOverTCP:
    def test_three_clients_end_to_end(self, tmp_path, tcp_stack):
        server, listener = tcp_stack
        population = sample_population(3, seed=5)
        machine = SimulatedMachine(MachineSpec.dell_gx270())

        for index, profile in enumerate(population):
            transport = listener.connect()
            try:
                client = UUCSClient(
                    ClientConfig(
                        root=tmp_path / f"client{index}",
                        user_id=profile.user_id,
                        sync_want=16,
                    ),
                    transport,
                    seed=100 + index,
                )
                client.register({"host": f"h{index}"})
                downloaded, _ = client.hot_sync()
                assert downloaded == 16
                user = make_user(profile, seed=200 + index)
                for task_name in ("word", "quake"):
                    task = get_task(task_name)
                    model = machine.interactivity_model(task)
                    script = [
                        tc.testcase_id for tc in task_testcases(task_name)
                    ]
                    runs = client.run_script(script, user, model, task=task_name)
                    assert len(runs) == 8
                _, uploaded = client.hot_sync()
                assert uploaded == 16
            finally:
                transport.close()

        # Server accumulated everything; analysis runs off the server store.
        all_runs = list(server.results)
        assert len(all_runs) == 3 * 16
        assert len(server.registry) == 3

        with ResultDatabase(tmp_path / "results.sqlite") as db:
            db.import_runs(all_runs)
            quake_cpu = cell_metrics(list(db.runs()), "quake", Resource.CPU)
        assert quake_cpu.cdf is not None
        assert quake_cpu.cdf.n == 3

    def test_client_reconnect_preserves_identity(self, tmp_path, tcp_stack):
        server, listener = tcp_stack
        config = ClientConfig(root=tmp_path / "c", user_id="u")
        transport = listener.connect()
        try:
            client = UUCSClient(config, transport)
            client_id = client.register({})
        finally:
            transport.close()
        transport = listener.connect()
        try:
            revived = UUCSClient(config, transport)
            assert revived.client_id == client_id
            revived.hot_sync()  # still registered server-side
        finally:
            transport.close()


class TestStudyToAnalysisCoherence:
    def test_metrics_identical_through_database(self, tmp_path, small_study):
        """Store -> DB -> analysis must not perturb any metric."""
        with ResultDatabase(tmp_path / "r.sqlite") as db:
            db.import_runs(small_study.runs)
            via_db, _ = metric_tables(list(db.runs()))
        direct, _ = metric_tables(list(small_study.runs))
        for key, cell in direct.items():
            assert via_db[key].f_d == cell.f_d
            assert via_db[key].c_05 == cell.c_05
            if cell.c_a is None:
                assert via_db[key].c_a is None
            else:
                assert via_db[key].c_a.mean == pytest.approx(cell.c_a.mean)
