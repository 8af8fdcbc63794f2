import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control.bsde import _utility_legs
from volterra_control.controls import ControlFn, discount_curve
from volterra_control.fsvie import (
    POSITIVITY_FLOOR,
    PositivityBreachError,
    _check_positive,
    first_variation,
    forward_mean_oracle,
    simulate_fsvie,
)
from volterra_control.model import ValidationError, time_quadrature_weights, validate_scenario
from volterra_control.paths import generate_noise


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


def noise_for(spec, n_paths=2000, seed=42):
    return generate_noise(spec.grid, spec.levy, n_paths, seed, 1)


JUMPY = dict(
    levy={"atoms": [[-0.1, 0.5], [0.25, 1.0]]},
    pi_kernels=[{"kind": "constant", "value": -0.1}, {"kind": "constant", "value": 0.25}],
)


# --------------------------------------------------------------------------- #
# basic dynamics
# --------------------------------------------------------------------------- #

def test_no_dynamics_keeps_state_flat():
    spec = make_scenario(alpha_kernel={"kind": "constant", "value": 0.0},
                         beta_kernel={"kind": "constant", "value": 0.0})
    noise = noise_for(spec, n_paths=16)
    zero = ControlFn.constant(0.0, spec.grid)
    for scheme in ("multiplicative_exact", "volterra_sum"):
        fwd = simulate_fsvie(spec, noise, zero, scheme=scheme)
        assert np.allclose(fwd.values, 1.0, atol=1e-14)


def test_deterministic_exponential_growth():
    spec = make_scenario(beta_kernel={"kind": "constant", "value": 0.0})
    noise = noise_for(spec, n_paths=4)
    zero = ControlFn.constant(0.0, spec.grid)
    exact = simulate_fsvie(spec, noise, zero)  # auto: exact stepping
    assert abs(exact.values[0, -1] - math.exp(0.05)) < 1e-12
    arith = simulate_fsvie(spec, noise, zero, scheme="volterra_sum")
    # left-point recursion (1 + a dt)^n carries an O(dt) defect
    assert abs(arith.values[0, -1] - (1.0 + 0.05 * 0.01) ** 100) < 1e-12
    assert abs(arith.values[0, -1] - math.exp(0.05)) < 2e-5


def test_terminal_mean_matches_exponential(s0_small, s0_noise):
    one = ControlFn.constant(1.0, s0_small.grid)
    fwd = simulate_fsvie(s0_small, s0_noise, one)
    x_t = fwd.values[:, -1]
    se = x_t.std(ddof=1) / math.sqrt(len(x_t))
    assert abs(x_t.mean() - math.exp(-0.95)) <= 3 * se


def test_linearity_in_initial_level():
    spec = make_scenario(**JUMPY)
    spec2 = make_scenario(initial=2.0, **JUMPY)
    noise = noise_for(spec, n_paths=256)
    one = ControlFn.constant(1.0, spec.grid)
    for scheme in ("multiplicative_exact", "volterra_sum"):
        a = simulate_fsvie(spec, noise, one, scheme=scheme)
        b = simulate_fsvie(spec2, noise, one, scheme=scheme)
        assert np.allclose(b.values, 2.0 * a.values, rtol=1e-14)


# --------------------------------------------------------------------------- #
# collapse to one-time stepping for time-invariant coefficients
# --------------------------------------------------------------------------- #

def _reference_arithmetic(spec, noise, c):
    alpha, beta = 0.05, 0.2
    pis = spec.pi_values()
    w = spec.levy.weights
    dt = spec.grid.dt
    x = np.empty((noise.n_paths, spec.grid.n_steps + 1))
    x[:, 0] = float(spec.initial)
    for i in range(spec.grid.n_steps):
        jump = np.zeros(noise.n_paths)
        for q, e in enumerate(pis):
            jump += e * (noise.jump_counts[q, :, i] - w[q] * dt)
        x[:, i + 1] = x[:, i] * (1.0 + (alpha - c) * dt + beta * noise.d_brownian[:, i] + jump)
    return x


def _reference_multiplicative(spec, noise, c):
    alpha, beta = 0.05, 0.2
    pis = spec.pi_values()
    w = spec.levy.weights
    dt = spec.grid.dt
    x = np.empty((noise.n_paths, spec.grid.n_steps + 1))
    x[:, 0] = float(spec.initial)
    for i in range(spec.grid.n_steps):
        log_f = (alpha - c - 0.5 * beta**2) * dt + beta * noise.d_brownian[:, i]
        for q, e in enumerate(pis):
            log_f = log_f + np.log1p(e) * noise.jump_counts[q, :, i] - w[q] * e * dt
        x[:, i + 1] = x[:, i] * np.exp(log_f)
    return x


def test_volterra_engine_collapses_to_arithmetic_euler():
    spec = make_scenario(**JUMPY)
    noise = noise_for(spec, n_paths=512)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one, scheme="volterra_sum")
    ref = _reference_arithmetic(spec, noise, 1.0)
    assert np.max(np.abs(fwd.values - ref)) < 1e-12


def test_exact_engine_matches_geometric_stepping():
    spec = make_scenario(**JUMPY)
    noise = noise_for(spec, n_paths=512)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    assert fwd.scheme == "multiplicative_exact"
    ref = _reference_multiplicative(spec, noise, 1.0)
    assert np.max(np.abs(fwd.values - ref)) < 1e-12


def _exp_of_summed_log_factors(spec, noise, control, last):
    """The exact engine as it was before it kept log X: it exponentiated
    ``cumsum(log f) + log xi`` into X."""
    dt = spec.grid.dt
    alpha, beta = spec.alpha(0.0, 0.0), spec.beta(0.0, 0.0)
    pi, w = spec.pi_values(), spec.levy.weights
    drift = alpha * dt - control.step_integrals(spec.grid)[:last] - 0.5 * beta * beta * dt
    log_f = drift[None, :] + beta * noise.d_brownian[:, :last]
    if pi.size:
        log_f = log_f + np.einsum(
            "m,mps->ps", np.log1p(pi), noise.jump_counts[:, :, :last].astype(float)
        )
        log_f -= float(np.dot(w, pi)) * dt
    x = np.empty((noise.n_paths, last + 1))
    x[:, 0] = float(spec.initial)
    np.exp(np.cumsum(log_f, axis=1) + np.log(float(spec.initial)), out=x[:, 1:])
    return x


def _log_consumption_legs(spec, control, x):
    """The utility legs as they were before the log state: ``log(c X) @ wl``."""
    n = spec.grid.n_steps
    wl = time_quadrature_weights(spec.grid) * discount_curve(
        spec.gamma, spec.grid, spec.convention)[:n]
    integrand = np.log(control.values(spec.grid)[None, :] * x[:, :n])
    return integrand @ wl, np.abs(integrand) @ wl


@settings(max_examples=25, deadline=None)
@given(
    initial=st.floats(0.2, 5.0).filter(lambda v: v != 1.0),
    size=st.floats(-0.5, 0.5).filter(lambda v: abs(v) > 1e-3),
    weight=st.floats(0.1, 3.0),
    gamma=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_log_state_matches_exponentiated_engine(initial, size, weight, gamma, seed):
    spec = make_scenario(
        grid={"horizon": 1.0, "n_steps": 20}, initial=initial, gamma=gamma,
        levy={"atoms": [[size, weight]]}, pi_kernels=[{"kind": "constant", "value": size}],
    )
    n = spec.grid.n_steps
    noise = generate_noise(spec.grid, spec.levy, 64, seed, 1)
    control = ControlFn.table(np.random.default_rng(seed).uniform(0.05, 3.0, n))

    fwd = simulate_fsvie(spec, noise, control, through_node=n - 1)
    ref = _exp_of_summed_log_factors(spec, noise, control, n - 1)
    assert fwd.log_state and fwd.last_node == n - 1 and fwd.n_paths == 64
    np.testing.assert_allclose(fwd.values, ref, rtol=1e-13, atol=0.0)
    # relative to the size of the summed terms: a leg may itself be near zero
    legs, scale = _log_consumption_legs(spec, control, ref)
    assert np.all(np.abs(_utility_legs(spec, control, fwd) - legs) <= 1e-13 * scale)

    # a rate of 40 drives log X through log(floor) near t = 0.7 on every path
    forty = ControlFn.constant(40.0, spec.grid)
    with pytest.raises(PositivityBreachError) as breach:
        simulate_fsvie(spec, noise, forty)
    with pytest.raises(PositivityBreachError) as old:
        _check_positive(_exp_of_summed_log_factors(spec, noise, forty, n), POSITIVITY_FLOOR)
    assert (breach.value.path, breach.value.node) == (old.value.path, old.value.node)
    assert math.isclose(breach.value.value, old.value.value, rel_tol=1e-12)


# --------------------------------------------------------------------------- #
# deterministic mean oracle
# --------------------------------------------------------------------------- #

def test_mean_oracle_constant_drift():
    spec = make_scenario()
    one = ControlFn.constant(1.0, spec.grid)
    m = forward_mean_oracle(spec, one)
    assert abs(m[-1] - math.exp(-0.95)) < 5e-5


def test_mean_oracle_no_drift():
    spec = make_scenario(alpha_kernel={"kind": "constant", "value": 0.0})
    zero = ControlFn.constant(0.0, spec.grid)
    assert np.allclose(forward_mean_oracle(spec, zero), 1.0, atol=1e-14)


def test_mean_oracle_grid_refinement_self_check():
    coarse = make_scenario(alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0})
    fine = make_scenario(
        grid={"horizon": 1.0, "n_steps": 10_000},
        alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
        mc={"n_paths": 1, "seed": 1, "n_blocks": 1},
    )
    m_c = forward_mean_oracle(coarse, ControlFn.constant(0.0, coarse.grid))
    m_f = forward_mean_oracle(fine, ControlFn.constant(0.0, fine.grid))
    assert abs(m_c[-1] / m_f[-1] - 1.0) < 1e-4


def test_weak_error_shrinks_first_order():
    errors = []
    for n in (25, 50, 100, 200):
        spec = make_scenario(
            grid={"horizon": 1.0, "n_steps": n},
            alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
            beta_kernel={"kind": "constant", "value": 0.0},
            mc={"n_paths": 1, "seed": 1, "n_blocks": 1},
        )
        noise = noise_for(spec, n_paths=1, seed=1)
        ctrl = ControlFn.constant(1.0, spec.grid)
        fwd = simulate_fsvie(spec, noise, ctrl, scheme="volterra_sum")
        oracle = forward_mean_oracle(spec, ctrl)
        errors.append(abs(fwd.values[0, -1] - oracle[-1]))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(1.5 < r < 2.7 for r in ratios)


# --------------------------------------------------------------------------- #
# positivity guard and node windows
# --------------------------------------------------------------------------- #

def test_positivity_breach_aborts_with_location():
    spec = make_scenario(beta_kernel={"kind": "constant", "value": 5.0})
    noise = noise_for(spec, n_paths=2000, seed=0)
    one = ControlFn.constant(1.0, spec.grid)
    with pytest.raises(PositivityBreachError) as err:
        simulate_fsvie(spec, noise, one, scheme="volterra_sum")
    assert err.value.path >= 0 and err.value.node > 0


def test_optimal_rate_cannot_reach_terminal_node(s0_small, s0_noise):
    cstar = ControlFn.theta_cstar(1.0, s0_small.gamma, s0_small.convention)
    with pytest.raises(PositivityBreachError):
        simulate_fsvie(s0_small, s0_noise, cstar)
    fwd = simulate_fsvie(s0_small, s0_noise, cstar,
                         through_node=s0_small.grid.n_steps - 1)
    assert fwd.last_node == s0_small.grid.n_steps - 1
    assert np.all(fwd.values > 0)


def test_through_node_truncates_output():
    spec = make_scenario()
    noise = noise_for(spec, n_paths=8)
    fwd = simulate_fsvie(spec, noise, ControlFn.constant(1.0, spec.grid), through_node=10)
    assert fwd.values.shape == (8, 11)


def test_negative_control_rejected():
    spec = make_scenario()
    noise = noise_for(spec, n_paths=8)
    with pytest.raises(ValidationError):
        simulate_fsvie(spec, noise, ControlFn.constant(-0.5, spec.grid))


# --------------------------------------------------------------------------- #
# first variation
# --------------------------------------------------------------------------- #

def test_first_variation_is_pathwise_derivative_of_arithmetic_engine():
    spec = make_scenario(**JUMPY)
    noise = noise_for(spec, n_paths=64)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one, scheme="volterra_sum")
    k = 30
    fv = first_variation(spec, noise, one, fwd, k, include_diagonal=False)
    h = 1e-6
    bumped_up = noise.d_brownian.copy()
    bumped_up[:, k] += h
    bumped_dn = noise.d_brownian.copy()
    bumped_dn[:, k] -= h
    import dataclasses

    up = dataclasses.replace(noise, d_brownian=bumped_up)
    dn = dataclasses.replace(noise, d_brownian=bumped_dn)
    x_up = simulate_fsvie(spec, up, one, scheme="volterra_sum").values
    x_dn = simulate_fsvie(spec, dn, one, scheme="volterra_sum").values
    fd = (x_up - x_dn) / (2 * h)
    assert np.max(np.abs(fd - fv.brownian)) < 1e-7


def test_first_variation_vanishes_before_the_node():
    spec = make_scenario()
    noise = noise_for(spec, n_paths=32)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    fv = first_variation(spec, noise, one, fwd, 40)
    assert np.all(fv.brownian[:, :40] == 0.0)


def test_first_variation_ratio_recovers_diffusion_loading(s0_small, s0_noise):
    one = ControlFn.constant(1.0, s0_small.grid)
    fwd = simulate_fsvie(s0_small, s0_noise, one)
    fv = first_variation(s0_small, s0_noise, one, fwd, 25)
    ratio = fv.brownian[:, 25:] / fwd.values[:, 25:]
    assert abs(ratio.mean() - 0.2) < 2e-3
    assert np.max(np.abs(ratio - 0.2)) < 0.02


def test_first_variation_jump_direction():
    spec = make_scenario(levy={"atoms": [[-0.1, 0.5]]},
                         pi_kernels=[{"kind": "constant", "value": -0.1}])
    noise = noise_for(spec, n_paths=256)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one, scheme="volterra_sum")
    fv = first_variation(spec, noise, one, fwd, 10)
    ratio = fv.jump[0][:, 10:] / fwd.values[:, 10:]
    assert abs(ratio.mean() + 0.1) < 2e-3


def test_first_variation_rejects_terminal_node():
    spec = make_scenario()
    noise = noise_for(spec, n_paths=8)
    fwd = simulate_fsvie(spec, noise, ControlFn.constant(1.0, spec.grid))
    with pytest.raises(ValidationError):
        first_variation(spec, noise, ControlFn.constant(1.0, spec.grid), fwd, 100)
