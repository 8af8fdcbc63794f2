import math

import numpy as np
import pytest

from volterra_control.control import (
    adjoint_malliavin_projection,
    adjoint_product,
    build_adjoint_state,
    gateaux_derivative,
    hamiltonian_h1,
    lambda_adjoint,
    log_utility_oracle,
    performance,
)
from volterra_control.controls import ControlFn
from volterra_control.fsvie import simulate_fsvie
from volterra_control.model import ValidationError, build_time_grid, validate_scenario
from volterra_control.paths import generate_noise

GRID = build_time_grid(1.0, 100)


def make_scenario(**overrides):
    raw = {
        "grid": {"horizon": 1.0, "n_steps": 100},
        "initial": 1.0,
        "gamma": 0.0,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 0.2},
        "levy": {"atoms": []},
        "pi_kernels": [],
        "filtration": {"mode": "trivial"},
        "mc": {"n_paths": 1000, "seed": 42, "n_blocks": 8},
    }
    raw.update(overrides)
    return validate_scenario(raw)


# --------------------------------------------------------------------------- #
# multiplier pipeline
# --------------------------------------------------------------------------- #

def test_lambda_flat_without_discounting():
    lam = lambda_adjoint(np.zeros(101), GRID, "discounting")
    assert np.all(lam == 1.0)


def test_lambda_unit_rate_both_conventions():
    gamma = np.ones(101)
    lam_d = lambda_adjoint(gamma, GRID, "discounting")
    lam_p = lambda_adjoint(gamma, GRID, "paper_ode")
    assert math.isclose(lam_d[-1], math.exp(-1.0), rel_tol=1e-12)
    assert math.isclose(lam_p[-1], math.exp(1.0), rel_tol=1e-12)
    assert lam_d[0] == 1.0 and lam_p[0] == 1.0


def test_remaining_value_linear_decay():
    big_p = adjoint_product(np.zeros(101), GRID, "discounting")
    assert np.allclose(big_p, 1.0 - GRID.nodes, atol=1e-12)
    assert big_p[-1] == 0.0


def test_remaining_value_discounted():
    big_p = adjoint_product(np.ones(101), GRID, "discounting")
    # left-point tail sum of e^{-s} carries an O(dt) offset
    assert abs(big_p[0] - (1.0 - math.exp(-1.0))) < 0.005


def test_remaining_value_monotone_for_nonneg_rate():
    big_p = adjoint_product(np.full(101, 0.7), GRID, "discounting")
    assert np.all(np.diff(big_p) < 0)


def test_optimal_rate_zero_discount():
    ctrl = ControlFn.theta_cstar(1.0, np.zeros(101), "discounting")
    vals = ctrl.values(GRID)
    assert math.isclose(vals[0], 1.0, rel_tol=1e-12)
    assert math.isclose(vals[50], 2.0, rel_tol=1e-12)


def test_optimal_rate_longer_horizon():
    grid = build_time_grid(2.0, 100)
    ctrl = ControlFn.theta_cstar(1.0, np.zeros(101), "discounting")
    assert math.isclose(ctrl.values(grid)[0], 0.5, rel_tol=1e-12)


def test_optimal_rate_with_discounting():
    ctrl = ControlFn.theta_cstar(1.0, np.ones(101), "discounting")
    assert abs(ctrl.values(GRID)[0] - 1.0 / (1.0 - math.exp(-1.0))) < 0.016


def test_first_order_condition_machine_precision():
    for gamma_val, convention in ((0.0, "discounting"), (1.0, "discounting"),
                                  (1.0, "paper_ode")):
        spec = make_scenario(gamma=gamma_val, gamma_sign_convention=convention)
        adj = build_adjoint_state(spec)
        assert adj.foc_residual() <= 1e-12


def test_optimal_rate_ignores_dynamics_parameters():
    base = make_scenario()
    variants = [
        make_scenario(initial=3.0),
        make_scenario(alpha_kernel={"kind": "constant", "value": 0.4}),
        make_scenario(beta_kernel={"kind": "constant", "value": 0.01}),
        make_scenario(levy={"atoms": [[0.5, 1.0]]},
                      pi_kernels=[{"kind": "constant", "value": 0.5}]),
    ]
    ref = build_adjoint_state(base).cstar
    for spec in variants:
        assert np.array_equal(build_adjoint_state(spec).cstar, ref)


# --------------------------------------------------------------------------- #
# objective evaluation and the deterministic oracle
# --------------------------------------------------------------------------- #

def test_oracle_unit_rate_closed_form():
    spec = make_scenario()
    val = log_utility_oracle(spec, ControlFn.constant(1.0, spec.grid))
    assert abs(val + 0.485) < 2e-5


def test_oracle_optimal_rate_closed_form():
    spec = make_scenario()
    cstar = ControlFn.theta_cstar(1.0, spec.gamma, spec.convention)
    assert abs(log_utility_oracle(spec, cstar) - 0.015) < 2e-4


def test_oracle_with_jump_atom():
    spec = make_scenario(levy={"atoms": [[-0.1, 0.5]]},
                         pi_kernels=[{"kind": "constant", "value": -0.1}])
    val = log_utility_oracle(spec, ControlFn.constant(1.0, spec.grid))
    # the jump adds w (log(1+pi) - pi) = 0.5 (log 0.9 + 0.1) to the log-state
    # drift; integrating s against it contributes half that rate
    expected = -0.485 + 0.25 * (math.log(0.9) + 0.1)
    assert abs(val - expected) < 2e-5


def test_oracle_rejects_two_time_kernels():
    spec = make_scenario(alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0})
    with pytest.raises(ValidationError):
        log_utility_oracle(spec, ControlFn.constant(1.0, spec.grid))


def test_oracle_maximized_at_unit_scaling():
    spec = make_scenario()
    thetas = [0.7, 0.85, 1.0, 1.15, 1.3]
    vals = [log_utility_oracle(
        spec, ControlFn.theta_cstar(t, spec.gamma, spec.convention)) for t in thetas]
    assert int(np.argmax(vals)) == 2
    for t, v in zip(thetas, vals):
        assert abs(v - (math.log(t) + 1.0 - t + 0.015)) < 3e-4


def test_performance_matches_oracle_for_smooth_rates(s0_small, s0_noise):
    for ctrl in (ControlFn.constant(1.0, s0_small.grid),
                 ControlFn.constant(0.5, s0_small.grid),
                 ControlFn.theta_cstar(1.0, s0_small.gamma, s0_small.convention)):
        res = performance(s0_small, ctrl, s0_noise)
        oracle = log_utility_oracle(s0_small, ctrl)
        assert abs(res.j - oracle) <= 3 * res.se


def test_performance_scaled_optimal_rate(s0_small, s0_noise):
    ctrl = ControlFn.theta_cstar(1.1, s0_small.gamma, s0_small.convention)
    res = performance(s0_small, ctrl, s0_noise)
    expected = math.log(1.1) + 1.0 - 1.1 + 0.015
    assert abs(res.j - expected) <= 3 * res.se


# --------------------------------------------------------------------------- #
# directional derivatives
# --------------------------------------------------------------------------- #

def test_gateaux_at_unit_rate_matches_analytic(s0_small, s0_noise):
    one = ControlFn.constant(1.0, s0_small.grid)
    g = gateaux_derivative(s0_small, one, 0.4, 0.1, 1.0, s0_noise)
    assert abs(g.estimate - 0.045) <= 3 * g.se
    assert abs(g.estimate - 0.045) < 1e-3  # exact stepping: midpoint identity


def test_gateaux_at_optimum_is_stationary(s0_small, s0_noise):
    cstar = ControlFn.theta_cstar(1.0, s0_small.gamma, s0_small.convention)
    for start in (0.1, 0.4, 0.7):
        g = gateaux_derivative(s0_small, cstar, start, 0.1, 1.0, s0_noise)
        assert abs(g.estimate) <= 3 * g.se
        assert abs(g.estimate) < 1.5e-3


def test_gateaux_zero_height_is_exactly_zero(s0_small, s0_noise):
    one = ControlFn.constant(1.0, s0_small.grid)
    g = gateaux_derivative(s0_small, one, 0.4, 0.1, 0.0, s0_noise)
    assert g.estimate == 0.0


def test_gateaux_second_route_through_hamiltonian_gradient(s0_small, s0_noise):
    # the bump functional derivative equals the integrated Hamiltonian
    # gradient lambda / c - P over the bump window
    adj = build_adjoint_state(s0_small)
    grid = s0_small.grid
    mask = (grid.nodes[:-1] >= 0.4 - 1e-12) & (grid.nodes[:-1] < 0.5 - 1e-12)
    grad = adj.lam[:-1] - adj.big_p[:-1]  # c = 1
    analytic = float(np.sum(grad[mask]) * grid.dt)
    one = ControlFn.constant(1.0, grid)
    g = gateaux_derivative(s0_small, one, 0.4, 0.1, 1.0, s0_noise)
    assert abs(g.estimate - analytic) < 1e-3


def test_gateaux_rejects_positivity_loss(s0_small, s0_noise):
    small = ControlFn.constant(5e-4, s0_small.grid)
    with pytest.raises(ValidationError):
        gateaux_derivative(s0_small, small, 0.4, 0.1, 1.0, s0_noise)


# --------------------------------------------------------------------------- #
# Hamiltonians
# --------------------------------------------------------------------------- #

def test_memory_hamiltonian_zero_for_time_invariant_kernels(s0_small, s0_noise):
    one = ControlFn.constant(1.0, s0_small.grid)
    fwd = simulate_fsvie(s0_small, s0_noise, one)
    adj = build_adjoint_state(s0_small, fwd)
    est, se = hamiltonian_h1(10, 1.0, fwd, adj, s0_small)
    assert est == 0.0 and se == 0.0


def test_memory_hamiltonian_deterministic_drift_case():
    from dataclasses import replace

    spec = make_scenario(
        alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
        beta_kernel={"kind": "constant", "value": 0.0},
    )
    adj = build_adjoint_state(spec)
    p_det = (1.0 - spec.grid.nodes)[None, :]  # prescribed ratio path
    adj = replace(adj, p_paths=p_det)
    est, se = hamiltonian_h1(0, 1.0, None, adj, spec)
    assert abs(est - (-0.05 * math.exp(-1.0))) < 2e-4
    assert se == 0.0


def test_memory_hamiltonian_linear_in_state():
    from dataclasses import replace

    spec = make_scenario(
        alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
        beta_kernel={"kind": "constant", "value": 0.0},
    )
    adj = replace(build_adjoint_state(spec), p_paths=(1.0 - spec.grid.nodes)[None, :])
    assert hamiltonian_h1(0, 0.0, None, adj, spec)[0] == 0.0


def test_adjoint_gradient_projection_matches_shortcut(s0_small):
    # for one-time coefficients the projected Brownian gradient of p = P/X
    # is -beta * p
    spec = s0_small.with_mc(n_paths=4000)
    noise = generate_noise(spec.grid, spec.levy, 4000, 3, 8)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    adj = build_adjoint_state(spec, fwd)
    proj = adjoint_malliavin_projection(spec, noise, one, fwd, adj, node=20)
    got = proj["brownian"][:, 40].mean()
    want = -0.2 * adj.p_paths[:, 40].mean()
    assert abs(got - want) < 0.01 * abs(want)


def test_adjoint_jump_gradient_matches_shortcut():
    spec = make_scenario(levy={"atoms": [[-0.1, 0.5]]},
                         pi_kernels=[{"kind": "constant", "value": -0.1}],
                         mc={"n_paths": 4000, "seed": 3, "n_blocks": 8})
    noise = generate_noise(spec.grid, spec.levy, 4000, 3, 8)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    adj = build_adjoint_state(spec, fwd)
    proj = adjoint_malliavin_projection(spec, noise, one, fwd, adj, node=20)
    got = proj["jump"][0][:, 40].mean()
    pi = -0.1
    want = -pi / (1 + pi) * adj.p_paths[:, 40].mean()
    assert abs(got - want) < 0.02 * abs(want)
