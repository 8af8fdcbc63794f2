import os
import pathlib
import threading

import numpy as np
import pytest

from volterra_control import acceptance, cli, control, paths
from volterra_control.cli import load_config
from volterra_control.controls import ControlFn
from volterra_control.fsvie import first_variation, simulate_fsvie
from volterra_control.model import validate_scenario
from volterra_control.paths import generate_noise

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def compensated(noise):
    """The compensated counts ``count - w_m dt`` of ``noise`` as one float
    array, shape ``(n_atoms, n_paths, n_steps)``: the plain reference for
    tests of the readers of ``N~``, none of which forms it."""
    return noise.jump_counts - noise.levy.weights[:, None, None] * noise.grid.dt


def utility_case(atoms, n_steps, n_paths, seed):
    """c* on a time-invariant scenario, full information on X, and its
    forward paths through node n - 1."""
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": n_steps},
        "initial": 1.0,
        "gamma": 1.0,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 0.2},
        "levy": {"atoms": atoms},
        "pi_kernels": [{"kind": "constant", "value": -0.1}] * len(atoms),
        "filtration": {"mode": "full"},
        "mc": {"n_paths": n_paths, "seed": seed, "n_blocks": 2},
        "regression": {"degree": 2, "state": ["x"]},
    })
    noise = generate_noise(spec.grid, spec.levy, n_paths, seed, 2)
    cstar = ControlFn.theta_cstar(1.0, spec.gamma, spec.convention)
    fwd = simulate_fsvie(spec, noise, cstar, through_node=n_steps - 1)
    return spec, noise, cstar, fwd


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


@pytest.fixture(scope="session")
def directions():
    """``directions(scenario, noise, control, fwd, node, include_diagonal=True)``
    collects the first variations ``first_variation`` hands out, Brownian
    first, each row copied into a path-major ``(n_paths, last_node + 1)``
    array that is zero at the nodes below the rows handed out."""

    def collect(scenario, noise, control, fwd, node, include_diagonal=True):
        out = []

        def consume(direction, i, row):
            if direction == len(out):
                out.append(np.zeros((fwd.last_node + 1, fwd.n_paths)))
            assert direction == len(out) - 1
            out[direction][i] = row

        first_variation(scenario, noise, control, fwd, node, consume, include_diagonal)
        return [full.T for full in out]

    return collect


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


@pytest.fixture
def draws(monkeypatch):
    """Record the path count of every whole bundle drawn through the modules
    that draw the main noise, and the ``(n_paths, seed, n_blocks)`` of every
    stream of it.

    Returns the two lists, ``(drawn, streamed)``; they fill as the test runs.
    """
    drawn, streamed = [], []

    def tracked_noise(grid, levy, n_paths, seed, n_blocks=8):
        drawn.append(n_paths)
        return generate_noise(grid, levy, n_paths, seed, n_blocks)

    stream = paths.stream_noise

    def tracked_stream(grid, levy, n_paths, seed, n_blocks, consume):
        streamed.append((n_paths, seed, n_blocks))
        stream(grid, levy, n_paths, seed, n_blocks, consume)

    for module in (acceptance, cli):
        monkeypatch.setattr(module, "generate_noise", tracked_noise)
    monkeypatch.setattr(control, "stream_noise", tracked_stream)
    return drawn, streamed
