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


def test_import_path_leaves_out_scipy_stats():
    """``import repro.cli`` and ``import repro.scheduler`` load no
    ``scipy.stats``: every ``uucs`` command and spawned shard worker pays
    this import, and ``scipy.stats`` alone took most of a second of it.
    A fresh interpreter, because this test process loads ``scipy.stats``
    itself."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, repro.cli, repro.scheduler; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-800:]
    assert proc.stdout.strip() == "[]"
