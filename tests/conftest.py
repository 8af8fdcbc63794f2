import os
import pathlib
import threading

import pytest

from volterra_control.cli import load_config
from volterra_control.paths import generate_noise

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def s0():
    return load_config(str(CONFIG_DIR / "s0.json"))


@pytest.fixture(scope="session")
def s0_small(s0):
    """Reference scenario at a test-friendly path count."""
    return s0.with_mc(n_paths=20_000)


@pytest.fixture(scope="session")
def s0_noise(s0_small):
    spec = s0_small
    return generate_noise(spec.grid, spec.levy, spec.mc.n_paths, spec.mc.seed, spec.mc.n_blocks)


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the package sees in its affinity mask.

    With one CPU, starting any thread fails the test: the package must then
    run everything on the calling thread.
    """
    real_start = threading.Thread.start

    def no_thread(self):
        raise AssertionError("a thread was started with one CPU in the affinity mask")

    def set_count(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setattr(threading.Thread, "start", no_thread if n == 1 else real_start)

    return set_count
