import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control.bsde import _utility_legs
from volterra_control.controls import ControlFn, discount_curve
from volterra_control.fsvie import (
    POSITIVITY_FLOOR,
    ForwardPaths,
    PositivityBreachError,
    _log_row_means,
    _log_rows,
    _simulate_volterra,
    first_variation,
    forward_mean_oracle,
    simulate_fsvie,
)
from volterra_control.model import (
    Kernel,
    ValidationError,
    time_quadrature_weights,
    validate_scenario,
)
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


def euler_sum(spec, noise, control):
    """``X`` from the triangular sum on every node, whatever the kernels: on
    time-invariant ones it is the arithmetic Euler scheme that the exact
    engine replaces."""
    return _simulate_volterra(spec, noise, control.values(spec.grid), spec.grid.n_steps)


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
    assert np.allclose(simulate_fsvie(spec, noise, zero).values, 1.0, atol=1e-14)
    assert np.allclose(euler_sum(spec, noise, zero), 1.0, atol=1e-14)


def test_deterministic_exponential_growth():
    spec = make_scenario(beta_kernel={"kind": "constant", "value": 0.0})
    noise = noise_for(spec, n_paths=4)
    zero = ControlFn.constant(0.0, spec.grid)
    exact = simulate_fsvie(spec, noise, zero)
    assert abs(exact.values[0, -1] - math.exp(0.05)) < 1e-12
    arith = euler_sum(spec, noise, zero)
    # left-point recursion (1 + a dt)^n carries an O(dt) defect
    assert abs(arith[0, -1] - (1.0 + 0.05 * 0.01) ** 100) < 1e-12
    assert abs(arith[0, -1] - math.exp(0.05)) < 2e-5


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
    a, b = simulate_fsvie(spec, noise, one), simulate_fsvie(spec2, noise, one)
    assert np.allclose(b.values, 2.0 * a.values, rtol=1e-14)
    assert np.allclose(euler_sum(spec2, noise, one), 2.0 * euler_sum(spec, noise, one),
                       rtol=1e-14)


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
    ref = _reference_arithmetic(spec, noise, 1.0)
    assert np.max(np.abs(euler_sum(spec, noise, one) - ref)) < 1e-12


def test_exact_engine_matches_geometric_stepping():
    spec = make_scenario(**JUMPY)
    noise = noise_for(spec, n_paths=512)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    ref = _reference_multiplicative(spec, noise, 1.0)
    assert np.max(np.abs(fwd.values - ref)) < 1e-12


def test_the_kernels_choose_the_engine(s0_small, s0_noise):
    # the exact engine, which keeps log X, exactly when the kernels are
    # time-invariant; two-time kernels take the triangular sum
    one = ControlFn.constant(1.0, s0_small.grid)
    assert simulate_fsvie(s0_small, s0_noise, one).log_state
    two_time = make_scenario(alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0})
    noise = noise_for(two_time, n_paths=8)
    fwd = simulate_fsvie(two_time, noise, one)
    assert not fwd.log_state
    np.testing.assert_array_equal(fwd.state, euler_sum(two_time, noise, one))


def _collected_log_x(spec, noise, c_int, last):
    """The exact engine's rows stacked as ``simulate_fsvie`` stacks them:
    ``log X`` path-major, node-major in memory."""
    log_x = np.empty((last + 1, noise.n_paths))
    for i, row in enumerate(_log_rows(spec, noise, c_int, last)):
        log_x[i] = row
    return log_x.T


def _whole_block_log_x(spec, noise, c_int, last):
    """``log X`` as the exact engine made it before it handed out rows: the
    log-increments of all steps as one block, then a running sum over the
    node rows."""
    dt, beta, pi = spec.grid.dt, spec.beta(0.0, 0.0), spec.pi_values()
    steps = beta * noise.d_brownian[:, :last].T + (spec.alpha(0.0, 0.0) * dt - c_int[:last]
                                                   - 0.5 * beta * beta * dt)[:, None]
    for q, log_jump in enumerate(np.log1p(pi)):
        steps += log_jump * noise.jump_counts[q, :, :last].T
    if pi.size:
        steps -= float(np.dot(spec.levy.weights, pi)) * dt
    ref = np.empty((last + 1, noise.n_paths))
    ref[0] = np.log(float(spec.initial))
    ref[1:] = steps
    for i in range(last):
        ref[i + 1] += ref[i]
    return ref.T


def test_exact_engine_peak_is_its_output_plus_a_few_rows():
    # the jump log-factors go in one node row at a time: a whole-block
    # product with the counts would be a float array the size of the output
    spec = make_scenario(**JUMPY)
    n = spec.grid.n_steps
    noise = noise_for(spec, n_paths=10_000)
    c_int = ControlFn.constant(1.0, spec.grid).step_integrals(spec.grid)
    tracemalloc.start()
    try:
        log_x = _collected_log_x(spec, noise, c_int, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= log_x.nbytes + 4 * noise.n_paths * 8
    # the same elementwise sums as the whole-block product, in the same order
    np.testing.assert_array_equal(log_x, _whole_block_log_x(spec, noise, c_int, n))


def test_exact_engine_rows_are_the_whole_block_columns():
    # two atoms: every row the generator hands out is bit for bit the column
    # of the whole-block engine, and only a few rows are ever held
    spec = make_scenario(**JUMPY)
    n = spec.grid.n_steps
    noise = noise_for(spec, n_paths=5_000)
    one = ControlFn.constant(1.0, spec.grid)
    c_int = one.step_integrals(spec.grid)
    ref = _whole_block_log_x(spec, noise, c_int, n)
    tracemalloc.start()
    try:
        for i, row in enumerate(_log_rows(spec, noise, c_int, n)):
            assert np.array_equal(row, ref[:, i])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert i == n
    assert peak <= 5 * noise.n_paths * 8  # a few rows, not the 101-row state
    np.testing.assert_array_equal(simulate_fsvie(spec, noise, one).state, ref)


def test_exact_engine_rejects_two_time_kernels():
    spec = make_scenario(alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0})
    noise = noise_for(spec, n_paths=4)
    with pytest.raises(ValidationError):
        next(_log_rows(spec, noise, np.zeros(spec.grid.n_steps), spec.grid.n_steps))


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
    old = _exp_of_summed_log_factors(spec, noise, forty, n)
    low = old.argmin(axis=0)
    node = np.flatnonzero(old[low, np.arange(n + 1)] <= POSITIVITY_FLOOR)[0]
    path = low[node]
    assert (breach.value.path, breach.value.node) == (path, node)
    assert math.isclose(breach.value.value, old[path, node], rel_tol=1e-12)


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


@pytest.mark.parametrize("alpha", [{"kind": "constant", "value": 0.05},
                                   {"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0}])
def test_mean_oracle_reads_alpha_one_row_at_a_time(alpha):
    # bit for bit the oracle of alpha's node matrix, which a table kernel of
    # the same values reads, without forming the 2001 x 2001 matrix
    spec = make_scenario(grid={"horizon": 1.0, "n_steps": 2000}, alpha_kernel=alpha,
                         mc={"n_paths": 1, "seed": 1, "n_blocks": 1})
    grid = spec.grid
    control = ControlFn.constant(1.0, grid)
    tracemalloc.start()
    try:
        m = forward_mean_oracle(spec, control)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    lower = spec.alpha.at_nodes(grid)[np.tril_indices(grid.n_steps + 1)]
    table = dataclasses.replace(spec, alpha=Kernel.from_table(lower, grid.n_steps))
    np.testing.assert_array_equal(m, forward_mean_oracle(table, control))


def _hand_weighted_mean_oracle(scenario, control):
    """The mean oracle with its trapezoid weights built by hand, in the
    oracle's dot order: the reference for the shared weights helper."""
    grid = scenario.grid
    n, dt = grid.n_steps, grid.dt
    c, xi, alpha = control.values(grid), scenario.initial_at_nodes, scenario.alpha.at_nodes(grid)
    m = np.empty(n + 1)
    m[0] = xi[0]
    for i in range(1, n + 1):
        coeff = alpha[i, : i + 1].copy()
        coeff[:i] -= c[:i]
        if i < n:
            coeff[i] -= c[i]
            w = np.full(i + 1, dt)
            w[0] = w[i] = 0.5 * dt
            m[i] = (xi[i] + float(np.dot(w[:i], coeff[:i] * m[:i]))) / (1.0 - w[i] * coeff[i])
        else:
            w = np.full(i, dt)
            w[0] = 0.5 * dt
            w[i - 1] = 1.5 * dt
            m[i] = xi[i] + float(np.dot(w, coeff[:i] * m[:i]))
    return m


@pytest.mark.parametrize("alpha", [{"kind": "exp_decay", "amplitude": 0.3, "rate": 2.0},
                                   {"kind": "table", "values": list(np.linspace(-0.2, 0.4, 231))}])
def test_mean_oracle_weights_are_the_hand_built_trapezoid(alpha):
    spec = make_scenario(grid={"horizon": 1.0, "n_steps": 20}, alpha_kernel=alpha,
                         initial=list(np.linspace(1.0, 2.0, 21)))
    control = ControlFn.table(np.linspace(0.5, 1.5, 20))
    np.testing.assert_array_equal(forward_mean_oracle(spec, control),
                                  _hand_weighted_mean_oracle(spec, control))


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
        fwd = simulate_fsvie(spec, noise, ctrl)
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
        simulate_fsvie(spec, noise, one)
    assert err.value.path >= 0 and err.value.node > 0


def test_breach_reports_the_lowest_path_at_the_first_node():
    # the first node whose lowest path reaches the floor, and that path; the
    # first breach in path order (the lowest path that ever breaches, at its
    # first breaching node) is another entry here
    spec = make_scenario(beta_kernel={"kind": "constant", "value": 6.0})
    noise = noise_for(spec, n_paths=2000, seed=0)
    one = ControlFn.constant(1.0, spec.grid)
    n = spec.grid.n_steps
    log_x = _collected_log_x(spec, noise, one.step_integrals(spec.grid), n)
    bad = log_x <= np.log(POSITIVITY_FLOOR)
    node = np.flatnonzero(bad.any(axis=0))[0]
    path = np.flatnonzero(log_x[:, node] == log_x[:, node].min())[0]
    assert tuple(np.argwhere(np.ascontiguousarray(bad))[0]) != (path, node)
    with pytest.raises(PositivityBreachError) as err:
        simulate_fsvie(spec, noise, one)
    assert (err.value.path, err.value.node) == (path, node)
    assert err.value.value == np.exp(log_x[path, node])


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


def test_log_row_means_are_the_exact_engine_means():
    # with jumps and a time-varying spend: every node's Monte Carlo mean of
    # log X within 4 SE of its exact mean, and node 0 exact
    spec = make_scenario(**JUMPY)
    noise = noise_for(spec, n_paths=20_000)
    control = ControlFn.theta_cstar(1.0, spec.gamma, spec.convention)
    c_int = control.step_integrals(spec.grid)
    n = spec.grid.n_steps
    want = _log_row_means(spec, c_int, n - 1)
    log_x = simulate_fsvie(spec, noise, control, through_node=n - 1).state
    mean = log_x.mean(axis=0)
    se = log_x.std(axis=0, ddof=1) / math.sqrt(noise.n_paths)
    assert want[0] == mean[0] == 0.0
    assert np.all(np.abs(mean[1:] - want[1:]) <= 4.0 * se[1:])
    with pytest.raises(ValidationError):
        _log_row_means(make_scenario(
            alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0}), c_int, n - 1)


# --------------------------------------------------------------------------- #
# first variation
# --------------------------------------------------------------------------- #

def test_first_variation_is_pathwise_derivative_of_arithmetic_engine(directions):
    spec = make_scenario(**JUMPY)
    noise = noise_for(spec, n_paths=64)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = ForwardPaths(grid=spec.grid, state=euler_sum(spec, noise, one), log_state=False)
    k = 30
    brownian = directions(spec, noise, one, fwd, k, include_diagonal=False)[0]
    h = 1e-6
    bumped_up = noise.d_brownian.copy()
    bumped_up[:, k] += h
    bumped_dn = noise.d_brownian.copy()
    bumped_dn[:, k] -= h
    import dataclasses

    up = dataclasses.replace(noise, d_brownian=bumped_up)
    dn = dataclasses.replace(noise, d_brownian=bumped_dn)
    fd = (euler_sum(spec, up, one) - euler_sum(spec, dn, one)) / (2 * h)
    assert np.max(np.abs(fd - brownian)) < 1e-7


def test_first_variation_vanishes_before_the_node():
    # the rows handed out start at the node (one later without the
    # diagonal): nothing before it is formed
    spec = make_scenario(**JUMPY)
    noise = noise_for(spec, n_paths=32)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    for diagonal, start in ((True, 40), (False, 41)):
        seen = []
        first_variation(spec, noise, one, fwd, 40,
                        lambda d, i, row: seen.append((d, i, row.shape)),
                        include_diagonal=diagonal)
        assert seen == [(d, i, (32,)) for d in range(1 + spec.n_atoms)
                        for i in range(start, 101)]


def test_first_variation_ratio_recovers_diffusion_loading(s0_small, s0_noise, directions):
    one = ControlFn.constant(1.0, s0_small.grid)
    fwd = simulate_fsvie(s0_small, s0_noise, one)
    (brownian,) = directions(s0_small, s0_noise, one, fwd, 25)
    ratio = brownian[:, 25:] / fwd.values[:, 25:]
    assert abs(ratio.mean() - 0.2) < 2e-3
    assert np.max(np.abs(ratio - 0.2)) < 0.02


def test_first_variation_jump_direction(directions):
    spec = make_scenario(levy={"atoms": [[-0.1, 0.5]]},
                         pi_kernels=[{"kind": "constant", "value": -0.1}])
    noise = noise_for(spec, n_paths=256)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    _, jump = directions(spec, noise, one, fwd, 10)
    ratio = jump[:, 10:] / fwd.values[:, 10:]
    assert abs(ratio.mean() + 0.1) < 2e-3


def test_first_variation_hands_out_the_directions_in_order():
    # Brownian, then atom 0 .. m - 1, each node by node, all in one reused
    # (N,) buffer, on the lift and, with a table kernel, on the blocked path
    lifted = make_scenario(alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
                           **JUMPY)
    table = lifted.beta.at_nodes(lifted.grid)[np.tril_indices(101)]
    blocked = dataclasses.replace(lifted, beta=Kernel.from_table(table, 100))
    for spec in (lifted, blocked):
        noise = noise_for(spec, n_paths=16)
        one = ControlFn.constant(1.0, spec.grid)
        fwd = simulate_fsvie(spec, noise, one)
        seen = []
        first_variation(spec, noise, one, fwd, 20, lambda d, i, row: seen.append((d, i, row)))
        assert [(d, i) for d, i, _ in seen] == [(d, i) for d in range(3) for i in range(20, 101)]
        assert all(row is seen[0][2] and row.shape == (16,) for *_, row in seen)


def test_first_variation_without_atoms_hands_out_the_brownian_direction_alone():
    spec = make_scenario()
    noise = noise_for(spec, n_paths=16)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    seen = []
    first_variation(spec, noise, one, fwd, 20, lambda d, i, row: seen.append(d))
    assert set(seen) == {0} and len(seen) == 81


def test_first_variation_rejects_terminal_node():
    spec = make_scenario()
    noise = noise_for(spec, n_paths=8)
    fwd = simulate_fsvie(spec, noise, ControlFn.constant(1.0, spec.grid))
    with pytest.raises(ValidationError):
        first_variation(spec, noise, ControlFn.constant(1.0, spec.grid), fwd, 100,
                        lambda direction, i, row: None)
