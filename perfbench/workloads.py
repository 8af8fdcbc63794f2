"""The three benchmark workloads.

Each workload has a ``setup(seed, root)`` that loads and validates its
scenario (timed from a fresh interpreter as ``setup_s``) and an
``operation(state)`` that runs one closed-loop operation and returns its
output values plus the list of checks that failed.  Package functions are
looked up on their modules at call time so that the traced run sees them.

Why these three:

* ``acceptance`` is the run users make to trust the reproduction; its time
  is mostly regression projections (C7, C5) and it barely sweeps.
* ``volterra_forward`` is the only workload where the triangular sweep and
  ``first_variation`` dominate; it bypasses ``bsvie`` and ``malliavin``.
* ``backward_jumps`` runs the backward solvers with jump coefficients, and
  reuses each cached regression design thousands of times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from volterra_control import bsde, bsvie, cli, condexp, control, controls, fsvie, model, paths


def _finite(values: dict, problems: list) -> None:
    for key, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{key} is not finite ({value!r})")


# --------------------------------------------------------------------------- #
# acceptance
# --------------------------------------------------------------------------- #

ACCEPTANCE_CONFIG = "configs/s0.json"
ACCEPTANCE_CHECKS = 27


def acceptance_setup(seed: int, root: Path) -> dict:
    # The suite runs at the config's own seed: its 3-SE bands are calibrated
    # there, and at some other seeds C2/C8 miss them (see NOTES.md).
    config = root / ACCEPTANCE_CONFIG
    spec = cli.load_config(str(config))
    return {"config": config, "seed": spec.mc.seed, "out": root / ".perfbench_out" / "acceptance"}


def acceptance_operation(state: dict) -> tuple[dict, list]:
    argv = ["run-acceptance", "--config", str(state["config"]),
            "--seed", str(state["seed"]), "--out", str(state["out"])]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.run(argv)
    report = json.loads((state["out"] / "report.json").read_text())
    checks = report["checks"]
    values = {c["name"]: c["value"] for c in checks}
    problems = []
    if code != 0:
        problems.append(f"run-acceptance exited {code}: {report['error']}")
    passed = sum(c["passed"] for c in checks)
    if passed != ACCEPTANCE_CHECKS or len(checks) != ACCEPTANCE_CHECKS:
        failing = [c["name"] for c in checks if not c["passed"]]
        problems.append(f"{passed}/{len(checks)} checks passed, want "
                        f"{ACCEPTANCE_CHECKS}/{ACCEPTANCE_CHECKS}; failing: {failing}")
    if printed.getvalue().count(": PASS ") != passed:
        problems.append("printed PASS lines disagree with report.json")
    return values, problems


# --------------------------------------------------------------------------- #
# volterra_forward
# --------------------------------------------------------------------------- #

FORWARD_STEPS = 200
FORWARD_PATHS = 20_000
H1_NODES = (50, 100, 150)


def forward_scenario(seed: int) -> dict:
    """Genuine two-time kernels, one jump atom, full information on ``x``."""
    return {
        "grid": {"horizon": 1.0, "n_steps": FORWARD_STEPS},
        "initial": 1.0,
        "gamma": 0.0,
        "alpha_kernel": {"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
        "beta_kernel": {"kind": "exp_decay", "amplitude": 0.2, "rate": 0.5},
        "levy": {"atoms": [[-0.1, 0.5]]},
        "pi_kernels": [{"kind": "exp_decay", "amplitude": -0.1, "rate": 0.5}],
        "filtration": {"mode": "full"},
        "mc": {"n_paths": FORWARD_PATHS, "seed": seed, "n_blocks": 8},
        "regression": {"degree": 2, "state": ["x"]},
    }


def forward_setup(seed: int, root: Path) -> model.ScenarioSpec:
    return model.validate_scenario(forward_scenario(seed))


def forward_operation(spec: model.ScenarioSpec) -> tuple[dict, list]:
    mc = spec.mc
    noise = paths.generate_noise(spec.grid, spec.levy, mc.n_paths, mc.seed, mc.n_blocks)
    ctrl = controls.ControlFn.constant(1.0, spec.grid)
    fwd = fsvie.simulate_fsvie(spec, noise, ctrl)
    oracle = float(fsvie.forward_mean_oracle(spec, ctrl)[-1])
    x_t = fwd.values[:, -1]
    mean = float(x_t.mean())
    se = float(x_t.std(ddof=1) / np.sqrt(x_t.shape[0]))
    adjoint = control.build_adjoint_state(spec, fwd)
    values = {"terminal_mean": mean}
    for k in H1_NODES:
        x_k = float(fwd.values[:, k].mean())
        h1, h1_se = control.hamiltonian_h1(k, x_k, fwd, adjoint, spec, noise, ctrl)
        values[f"h1_{k}"] = h1
        values[f"h1_{k}_se"] = h1_se
    problems = []
    # the simulate-forward band: 4 SE plus a first-order discretization allowance
    tol = 4.0 * se + 0.02 * abs(oracle)
    if abs(mean - oracle) > tol:
        problems.append(f"terminal mean {mean!r} outside {oracle!r} +- {tol!r}")
    _finite(values, problems)
    return values, problems


# --------------------------------------------------------------------------- #
# backward_jumps
# --------------------------------------------------------------------------- #

BSVIE_STEPS = 50
BSVIE_PATHS = 10_000
UTILITY_STEPS = 100
UTILITY_PATHS = 100_000
ATOM = [-0.1, 2.0]


def utility_scenario(seed: int) -> dict:
    """Time-invariant kernels with the jump atom, ``gamma = 0.5``, full information."""
    return {
        "grid": {"horizon": 1.0, "n_steps": UTILITY_STEPS},
        "initial": 1.0,
        "gamma": 0.5,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 0.2},
        "levy": {"atoms": [ATOM]},
        "pi_kernels": [{"kind": "constant", "value": -0.1}],
        "filtration": {"mode": "full"},
        "mc": {"n_paths": UTILITY_PATHS, "seed": seed, "n_blocks": 8},
        "regression": {"degree": 2, "state": ["x"]},
    }


def backward_setup(seed: int, root: Path) -> dict:
    return {
        "seed": seed,
        "grid": model.build_time_grid(1.0, BSVIE_STEPS),
        "levy": model.LevyMeasure.from_atoms([ATOM]),
        "filtration": model.FiltrationMode(mode="full"),
        "regression": model.RegressionSpec(degree=2, variables=("brownian", "jump_counts")),
        "utility": model.validate_scenario(utility_scenario(seed)),
    }


def _bsvie_driver(i, r, y, z, k, x):
    return np.sin(y) + 0.2 * z + 0.2 * k[0]


def backward_operation(state: dict) -> tuple[dict, list]:
    grid = state["grid"]
    noise = paths.generate_noise(grid, state["levy"], BSVIE_PATHS, state["seed"], 8)
    engine = condexp.CondExpEngine(state["filtration"], state["regression"], noise)
    b_total = noise.d_brownian.sum(axis=1)
    n_total = noise.jump_counts[0].sum(axis=1)
    zeta = grid.nodes[:, None] * b_total[None, :] + 0.1 * n_total[None, :]
    problems = []
    try:
        sol = bsvie.solve_bsvie(zeta, _bsvie_driver, noise, engine, beta_w=20.0, tol=1e-10)
        values = {"bsvie_y0": float(sol.y[0].mean()), "bsvie_passes": len(sol.iteration_log)}
    except bsvie.ConvergenceError as exc:
        values = {}
        problems.append(f"solve_bsvie: {exc}")

    spec = state["utility"]
    mc = spec.mc
    noise = paths.generate_noise(spec.grid, spec.levy, mc.n_paths, mc.seed, mc.n_blocks)
    cstar = controls.ControlFn.theta_cstar(1.0, spec.gamma, spec.convention)
    fwd = fsvie.simulate_fsvie(spec, noise, cstar, through_node=spec.grid.n_steps - 1)
    y0, y0_se = bsde.recursive_utility_bsde(spec, cstar, fwd, noise)
    values["bsde_y0"], values["bsde_y0_se"] = y0, y0_se
    # Recorded, not gated: at gamma != 0 the c* of ControlFn.values (discrete
    # left-point tail) and of oracle_profile (trapezoid tail) differ, so the
    # Monte Carlo utility and the oracle disagree by several SE (about 6 here).
    closed, closed_se = bsde.recursive_utility(spec, cstar, fwd)
    values["utility_closed_form"], values["utility_closed_form_se"] = closed, closed_se
    values["utility_oracle"] = control.log_utility_oracle(spec, cstar)
    values["utility_gap_se"] = (closed - values["utility_oracle"]) / closed_se
    _finite(values, problems)
    return values, problems


WORKLOADS = {
    "acceptance": (acceptance_setup, acceptance_operation),
    "volterra_forward": (forward_setup, forward_operation),
    "backward_jumps": (backward_setup, backward_operation),
}
