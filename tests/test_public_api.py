"""Public-API surface checks: every exported name resolves and is
documented."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.client",
    "repro.core",
    "repro.exercisers",
    "repro.machine",
    "repro.monitor",
    "repro.net",
    "repro.scheduler",
    "repro.server",
    "repro.stores",
    "repro.study",
    "repro.telemetry",
    "repro.throttle",
    "repro.users",
    "repro.util",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert module.__all__, f"{package} exports nothing"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_sorted_unique(package):
    module = importlib.import_module(package)
    names = list(module.__all__)
    assert len(names) == len(set(names)), f"{package} has duplicate exports"


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_documented(package):
    module = importlib.import_module(package)
    assert (module.__doc__ or "").strip(), f"{package} lacks a docstring"
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj) or isinstance(obj, type):
            assert (getattr(obj, "__doc__", None) or "").strip(), (
                f"{package}.{name} lacks a docstring"
            )


def test_version_consistent():
    import repro

    import tomllib

    with open("pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert repro.__version__ == pyproject["project"]["version"]


def _scipy_modules_after(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter (this test process loads scipy
    itself) and return the sorted ``scipy*`` modules it left loaded."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code += (
        "\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-800:]
    return proc.stdout.strip().splitlines()[-1]


def test_import_path_leaves_out_scipy_stats():
    """``import repro.cli`` and ``import repro.scheduler`` load no scipy
    module at all, ``scipy.stats`` included: every ``uucs`` command and
    spawned shard worker pays this import, and ``scipy.special`` alone
    was ~40% of it.  scipy is needed for analysis only."""
    code = "import sys, repro.cli, repro.scheduler"
    assert _scipy_modules_after(code) == "[]"


def test_run_paths_leave_out_scipy(tmp_path):
    """Running a study on either threshold path (the scalar ``ndtri`` of
    the analytic engine, the array one of the batch engine), a fleet
    and a hot sync loads no scipy module either: a lazy import on the
    first threshold draw would only move the import time there."""
    code = """
import sys
from pathlib import Path

import repro.cli, repro.scheduler
from repro.client import ClientConfig, UUCSClient
from repro.scheduler import FleetConfig, run_fleet
from repro.server import InProcessTransport, UUCSServer
from repro.study import ControlledStudyConfig, run_sharded_study
from repro.study.testcases import task_testcases

for engine in ("analytic", "batch"):
    config = ControlledStudyConfig(n_users=2, seed=7, engine=engine)
    runs = run_sharded_study(config).runs
    assert len(runs) == 64, len(runs)
board = run_fleet(FleetConfig(policy="cdf", clients=20, epochs=4, seed=3))
assert board.decisions > 0
root = Path(sys.argv[1])
server = UUCSServer(root / "server", seed=1)
server.add_testcases(task_testcases("word"))
client = UUCSClient(
    ClientConfig(root=root / "client"), InProcessTransport(server), seed=2
)
client.register({})
client.results.extend(runs[:4])
assert client.hot_sync()[1] == 4
"""
    assert _scipy_modules_after(code, str(tmp_path)) == "[]"
