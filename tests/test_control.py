import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import _kernels
from volterra_control import acceptance as acc
from volterra_control import control as ctl
from volterra_control.bsde import _utility_legs
from volterra_control.condexp import CondExpEngine
from volterra_control.control import (
    PerformanceResult,
    build_adjoint_state,
    gateaux_derivative,
    hamiltonian_h1,
    log_utility_oracle,
    performance,
)
from volterra_control.controls import ControlFn, discount_curve, remaining_value_curve
from volterra_control.fsvie import (
    POSITIVITY_FLOOR,
    ForwardPaths,
    PositivityBreachError,
    simulate_fsvie,
)
from volterra_control.model import (
    ValidationError,
    build_time_grid,
    mean_se,
    time_quadrature_weights,
    validate_scenario,
)
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
    lam = discount_curve(np.zeros(101), GRID, "discounting")
    assert np.all(lam == 1.0)


def test_lambda_unit_rate_both_conventions():
    gamma = np.ones(101)
    lam_d = discount_curve(gamma, GRID, "discounting")
    lam_p = discount_curve(gamma, GRID, "paper_ode")
    assert math.isclose(lam_d[-1], math.exp(-1.0), rel_tol=1e-12)
    assert math.isclose(lam_p[-1], math.exp(1.0), rel_tol=1e-12)
    assert lam_d[0] == 1.0 and lam_p[0] == 1.0


def test_remaining_value_linear_decay():
    big_p = remaining_value_curve(np.zeros(101), GRID, "discounting")
    assert np.allclose(big_p, 1.0 - GRID.nodes, atol=1e-12)
    assert big_p[-1] == 0.0


def test_remaining_value_discounted():
    big_p = remaining_value_curve(np.ones(101), GRID, "discounting")
    # left-point tail sum of e^{-s} carries an O(dt) offset
    assert abs(big_p[0] - (1.0 - math.exp(-1.0))) < 0.005


def test_remaining_value_monotone_for_nonneg_rate():
    big_p = remaining_value_curve(np.full(101, 0.7), GRID, "discounting")
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


def test_oracle_reads_a_table_on_the_grids_steps(s0):
    # a table of n + 1 values carries an unused terminal value: the oracle
    # reads it on the grid's n steps, as ``values`` and ``step_integrals`` do
    grid = s0.grid
    rates = 0.5 + grid.nodes[:-1]
    short, long = ControlFn.table(rates), ControlFn.table(np.append(rates, 123.0))
    assert np.array_equal(short.step_integrals(grid), long.step_integrals(grid))
    assert log_utility_oracle(s0, short) == log_utility_oracle(s0, long)


def test_oracle_rejects_a_bump(s0):
    # the oracle prices the controls its callers build; a bump is not one
    bump = ControlFn.bump(ControlFn.constant(1.0, s0.grid), 0.4, 0.1, 0.3)
    with pytest.raises(ValidationError, match="table and theta_cstar controls"):
        log_utility_oracle(s0, bump)


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


def _discrete_mean_objective(spec, control):
    """Exact expectation of the Monte Carlo objective on the exact engine,
    for time-invariant kernels without jumps: ``E[log X_i]`` is ``log xi``
    plus the summed per-step drifts, so no path is needed."""
    grid = spec.grid
    n, dt = grid.n_steps, grid.dt
    alpha, beta = spec.alpha(0.0, 0.0), spec.beta(0.0, 0.0)
    steps = (alpha - 0.5 * beta * beta) * dt - control.step_integrals(grid)[: n - 1]
    mean_log_x = math.log(float(spec.initial)) + np.concatenate(([0.0], np.cumsum(steps)))
    wl = time_quadrature_weights(grid) * discount_curve(spec.gamma, grid, spec.convention)[:n]
    return float((np.log(control.values(grid)) + mean_log_x) @ wl)


def _discrete_central_difference(spec, control, start, length, height):
    # log X is affine in the control, so the common-random-number difference
    # of the two displaced objectives is the difference of their exact means
    theta = ctl._BUMP_THETA

    def displaced(sign):
        bumped = ControlFn.bump(control, start, length, sign * theta * height)
        return _discrete_mean_objective(spec, bumped)
    return (displaced(+1.0) - displaced(-1.0)) / (2.0 * theta)


@pytest.mark.parametrize("rate, start", [("cstar", 0.1), ("one", 0.4)])
def test_gateaux_equals_exact_discrete_difference(s0_small, s0_noise, rate, start):
    # The C4 band (3 se, about 0.78 at 100k paths) cannot fail: an estimate of
    # 0, or the sign-flipped -0.045 at the unit rate, lies inside it.  The
    # pathwise difference is deterministic, so pin the estimate itself.
    control = (ControlFn.theta_cstar(1.0, s0_small.gamma, s0_small.convention)
               if rate == "cstar" else ControlFn.constant(1.0, s0_small.grid))
    g = gateaux_derivative(s0_small, control, start, 0.1, 1.0, s0_noise)
    exact = _discrete_central_difference(s0_small, control, start, 0.1, 1.0)
    assert abs(g.estimate - exact) <= 1e-10
    assert g.se_paired <= 1e-12


def test_performance_tracks_exact_discrete_mean(s0_small, s0_noise):
    one = ControlFn.constant(1.0, s0_small.grid)
    exact = _discrete_mean_objective(s0_small, one)
    assert abs(exact - (-0.4849515)) < 5e-8
    res = performance(s0_small, one, s0_noise)
    assert abs(res.j - exact) <= 3 * res.se


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("rate", ["cstar", "one"])
def test_exact_discrete_mean_is_the_no_jump_objective(gamma, rate):
    spec = make_scenario(gamma=gamma)
    control = (ControlFn.theta_cstar(1.0, spec.gamma, spec.convention)
               if rate == "cstar" else ControlFn.constant(1.0, spec.grid))
    # the reference evaluate-utility gates on, read off its check
    (row,) = acc.check_utility_exact_mean(spec, control, PerformanceResult(j=0.0, se=0.0))
    exact = row.reference
    assert math.isclose(exact, _discrete_mean_objective(spec, control), rel_tol=1e-12)
    if gamma == 0.0:
        # without discounting the continuous oracle and the grid's exact
        # mean price the same control
        assert abs(exact - log_utility_oracle(spec, control)) < 1e-4


def _simulated_legs(spec, control, noise):
    """The utility legs from one simulation of the state, and the size of
    their summed terms: the leg sums ``L`` and the spent ``C`` apart, so
    ``log X = L - C`` may be small where both are large."""
    n = spec.grid.n_steps
    fwd = simulate_fsvie(spec, noise, control, through_node=n - 1)
    spent = np.concatenate(([0.0], np.cumsum(control.step_integrals(spec.grid)[: n - 1])))
    wl = time_quadrature_weights(spec.grid) * discount_curve(
        spec.gamma, spec.grid, spec.convention)[:n]
    size = np.abs(fwd.state[:, :n]) + spent + np.abs(np.log(control.values(spec.grid)))
    return _utility_legs(spec, control, fwd), size @ wl


def _breach(evaluate):
    with pytest.raises(PositivityBreachError) as err:
        evaluate()
    return err.value.path, err.value.node, err.value.value


def _assert_same_breach(leg_breach, simulated):
    """Path and node exactly; the leg's value is ``exp(min_log - C)``, the
    simulator's its summed row, so the two agree up to rounding."""
    assert leg_breach[:2] == simulated[:2]
    assert math.isclose(leg_breach[2], simulated[2], rel_tol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    initial=st.floats(0.2, 5.0).filter(lambda v: v != 1.0),
    atoms=st.lists(
        st.tuples(st.floats(-0.5, 0.5).filter(lambda v: abs(v) > 1e-3), st.floats(0.1, 3.0)),
        min_size=1, max_size=2,
    ),
    gamma=st.floats(0.01, 1.0),
    bump=st.tuples(st.floats(0.0, 0.9), st.floats(0.05, 0.5), st.floats(-0.04, 2.0)),
    seed=st.integers(0, 2**31 - 1),
)
def test_control_free_leg_matches_simulated_legs(initial, atoms, gamma, bump, seed):
    spec = make_scenario(
        grid={"horizon": 1.0, "n_steps": 20}, initial=initial, gamma=gamma,
        levy={"atoms": [list(a) for a in atoms]},
        pi_kernels=[{"kind": "constant", "value": size} for size, _ in atoms],
    )
    spec = spec.with_mc(n_paths=64, seed=seed, n_blocks=1)
    grid, n = spec.grid, spec.grid.n_steps
    noise = generate_noise(grid, spec.levy, 64, seed, 1)
    log_noise = ctl._streamed_log_noise_leg(spec)
    table = ControlFn.table(np.random.default_rng(seed).uniform(0.05, 3.0, n))
    start, length, height = bump
    length = min(length, 1.0 - start)
    weights = ctl._shift_weights(spec)
    for control in (table, ControlFn.bump(table, start, length, height)):
        part, terms = ctl._control_legs(spec, control, log_noise)
        legs, size = _simulated_legs(spec, control, noise)
        assert np.all(np.abs(part + terms @ weights - legs) <= 1e-13 * size)
        assert abs(performance(spec, control, log_noise).j - legs.mean()) <= 1e-13 * size.mean()

    g = gateaux_derivative(spec, table, start, length, 1.0, log_noise)
    plus, size_plus = _simulated_legs(spec, ControlFn.bump(table, start, length, 1e-3), noise)
    minus, size_minus = _simulated_legs(spec, ControlFn.bump(table, start, length, -1e-3), noise)
    assert g.se_paired == 0.0
    assert abs(g.estimate - (plus - minus).mean() / 2e-3) <= \
        1e-13 * (size_plus + size_minus).mean() / 2e-3
    assert abs(g.j_plus - plus.mean()) <= 1e-13 * size_plus.mean()
    assert abs(g.j_minus - minus.mean()) <= 1e-13 * size_minus.mean()

    # the constant rate at which the lowest path first reaches log(floor)
    # before the horizon
    critical = float(np.min(
        (log_noise.min_log[1:n] - np.log(POSITIVITY_FLOOR)) / (np.arange(1, n) * grid.dt)))
    above = ControlFn.constant(critical * (1.0 + 1e-6), grid)
    _assert_same_breach(_breach(lambda: performance(spec, above, log_noise)),
                        _breach(lambda: simulate_fsvie(spec, noise, above, through_node=n - 1)))
    below = ControlFn.constant(critical * (1.0 - 1e-6), grid)
    legs, size = _simulated_legs(spec, below, noise)
    assert abs(performance(spec, below, log_noise).j - legs.mean()) <= 1e-13 * size.mean()
    # the upward leg of a bump over the whole horizon crosses the floor
    bumped_up = ControlFn.bump(below, 0.0, 1.0, 1e-3 * critical)
    _assert_same_breach(
        _breach(lambda: gateaux_derivative(spec, below, 0.0, 1.0, critical, log_noise)),
        _breach(lambda: simulate_fsvie(spec, noise, bumped_up, through_node=n - 1)))


def test_log_noise_leg_is_read_off_the_zero_control_rows():
    # two atoms and a discount: the leg is summed row by row as the exact
    # engine hands the rows out, so it is the simulated zero-control leg up
    # to the order of the sum; the per-node minimum through the horizon, its
    # path and the terminal row are the same bits
    spec = make_scenario(
        initial=1.7, gamma=0.4, levy={"atoms": [[-0.1, 0.5], [0.25, 1.0]]},
        pi_kernels=[{"kind": "constant", "value": -0.1}, {"kind": "constant", "value": 0.25}],
        mc={"n_paths": 3000, "seed": 11, "n_blocks": 3},
    )
    n = spec.grid.n_steps
    noise = generate_noise(spec.grid, spec.levy, 3000, 11, 3)
    log_noise = ctl._streamed_log_noise_leg(spec)
    zero = simulate_fsvie(spec, noise, ControlFn.constant(0.0, spec.grid))
    assert zero.log_state and zero.last_node == n
    np.testing.assert_array_equal(log_noise.min_log, zero.state.min(axis=0))
    np.testing.assert_array_equal(log_noise.low_path, zero.state.argmin(axis=0))
    np.testing.assert_array_equal(log_noise.terminal, zero.state[:, n])
    # log(1) = 0: the unit rate adds nothing to the simulated leg
    legs = _utility_legs(spec, ControlFn.constant(1.0, spec.grid), zero)
    scale = np.abs(zero.state[:, :n]) @ ctl._utility_weights(spec)
    assert np.all(np.abs(log_noise.leg - legs) <= 1e-14 * scale)


def test_log_noise_leg_serves_only_its_own_scenario(s0_small):
    log_noise = ctl._streamed_log_noise_leg(s0_small)
    with pytest.raises(ValidationError):
        performance(s0_small.with_mc(n_paths=20_000), ControlFn.constant(1.0, s0_small.grid),
                    log_noise)


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


def _unit_state_adjoint(spec):
    """The adjoint on one path with ``X = 1``: at ``gamma = 0`` the ratio is
    ``p = P = 1 - t``."""
    ones = ForwardPaths(grid=spec.grid, state=np.ones((1, spec.grid.n_steps + 1)),
                        log_state=False)
    return build_adjoint_state(spec, ones)


def test_memory_hamiltonian_deterministic_drift_case():
    spec = make_scenario(
        alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
        beta_kernel={"kind": "constant", "value": 0.0},
    )
    est, se = hamiltonian_h1(0, 1.0, None, _unit_state_adjoint(spec), spec)
    assert abs(est - (-0.05 * math.exp(-1.0))) < 2e-4
    assert se == 0.0


def test_memory_hamiltonian_linear_in_state():
    spec = make_scenario(
        alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
        beta_kernel={"kind": "constant", "value": 0.0},
    )
    assert hamiltonian_h1(0, 0.0, None, _unit_state_adjoint(spec), spec)[0] == 0.0


def test_memory_hamiltonian_weights_are_the_hand_built_trapezoid():
    # no gradient terms: the estimate is the drift part, contracted in the
    # Hamiltonian's order with trapezoid weights built by hand
    spec = make_scenario(alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
                         gamma=0.3)
    grid, n, k = spec.grid, spec.grid.n_steps, 7
    noise = generate_noise(grid, spec.levy, 500, 3, 1)
    fwd = simulate_fsvie(spec, noise, ControlFn.constant(1.0, grid))
    adj = build_adjoint_state(spec, fwd)
    w = np.full(n + 1 - k, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    col_a = spec.alpha.d_first_column(grid, k)
    per_path = np.zeros(fwd.n_paths)
    for j, s in enumerate(range(k, n + 1)):
        per_path += adj.big_p[s] / fwd.row(s) * (w[j] * col_a[j])
    assert hamiltonian_h1(k, 1.3, fwd, adj, spec) == mean_se(per_path * 1.3)


def _outer_product_first_variations(scenario, noise, control, fwd, k):
    """The first variations at ``t_k`` with the diagonal, Brownian first,
    each path-major ``(n_paths, last + 1)``: the whole triangle swept
    directly, on the source ``column * X(t_k)`` from node ``k`` on."""
    grid = scenario.grid
    last = fwd.last_node
    a_nodes = scenario.alpha.at_nodes(grid)[: last + 1, : last + 1]
    b_nodes = scenario.beta.at_nodes(grid)[: last + 1, : last + 1]
    p_nodes = np.zeros((scenario.n_atoms, last + 1, last + 1))
    for q, ker in enumerate(scenario.pi_kernels):
        p_nodes[q] = ker.at_nodes(grid)[: last + 1, : last + 1]
    counts = noise.jump_counts[:, :, :last]
    cj = counts - scenario.levy.weights[:, None, None] * grid.dt
    xk = fwd.values[:, k]

    def run(column):
        source = np.zeros((last + 1, fwd.n_paths))
        source[k:] = column[k:, None] * xk[None, :]
        return _kernels.volterra_sweep(source, a_nodes, control.values(grid)[:last], b_nodes,
                                       noise.d_brownian[:, :last], p_nodes, cj, grid.dt)

    return [run(b_nodes[:, k])] + [run(p_nodes[q, :, k]) for q in range(scenario.n_atoms)]


def adjoint_malliavin_projection(scenario, noise, control, fwd, adjoint, node):
    """Projected stochastic gradients of the adjoint ratio ``p = P / X``,
    one projected column per node and direction.

    For the Brownian direction the pathwise derivative is
    ``-P(s) V(s) / X(s)^2`` with ``V`` the first-variation process; for a
    jump direction the exact difference ``P/(X + dX) - P/X`` is used.  Both
    are projected onto the information at the differentiation node.  Keys:
    ``brownian`` (n_paths, n_nodes) and ``jump`` (n_atoms, n_paths, n_nodes);
    columns before the node are zero.  The first variations come from
    ``_outer_product_first_variations``, not from ``first_variation``.
    """
    k = int(node)
    brownian, *jumps = _outer_product_first_variations(scenario, noise, control, fwd, k)
    last = fwd.last_node
    x = fwd.values
    big_p = adjoint.big_p[: last + 1]
    engine = CondExpEngine(scenario.filtration, scenario.regression, noise, x_paths=fwd)

    m = scenario.n_atoms
    n_paths = x.shape[0]
    cols = slice(k, last + 1)
    width = last + 1 - k
    p_tail, x_tail = big_p[None, cols], x[:, cols]
    block = np.empty((n_paths, (1 + m) * width), order="F")
    block[:, :width] = -p_tail * brownian[:, cols] / x_tail**2
    for q in range(m):
        block[:, (q + 1) * width:(q + 2) * width] = (
            p_tail / (x_tail + jumps[q][:, cols]) - p_tail / x_tail
        )
    block = engine.project(k, block)
    out_b = np.zeros((n_paths, last + 1))
    out_b[:, cols] = block[:, :width]
    out_j = np.zeros((m, n_paths, last + 1))
    for q in range(m):
        out_j[q][:, cols] = block[:, (q + 1) * width:(q + 2) * width]
    return {"brownian": out_b, "jump": out_j}


def _h1_project_then_contract(node, x, fwd, adjoint, scenario, noise, control):
    """The memory Hamiltonian formed the long way: the whole ratio ``P/X``,
    every gradient column projected on its own, then the quadrature."""
    grid = scenario.grid
    n, k = grid.n_steps, node
    col_a = scenario.alpha.d_first_column(grid, k)
    col_b = scenario.beta.d_first_column(grid, k)
    cols_p = [kk.d_first_column(grid, k) for kk in scenario.pi_kernels]
    w = np.full(n + 1 - k, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    p_paths = adjoint.big_p[None, :] / adjoint.fwd.values
    per_path = (p_paths[:, k:] * (w * col_a)[None, :]).sum(axis=1) * x
    projections = adjoint_malliavin_projection(scenario, noise, control, fwd, adjoint, k)
    per_path = per_path + (projections["brownian"][:, k:] * (w * col_b)[None, :]).sum(axis=1) * x
    for q, col in enumerate(cols_p):
        wq, jump = scenario.levy.weights[q], projections["jump"][q][:, k:]
        per_path = per_path + wq * (jump * (w * col)[None, :]).sum(axis=1) * x
    return float(per_path.mean()), float(per_path.std(ddof=1) / np.sqrt(per_path.shape[0]))


def _two_time_kernel(kind, base, spread, n_steps, rng):
    """An ``exp_decay`` kernel, or a table of random values on its triangle."""
    if kind == "exp_decay":
        return {"kind": "exp_decay", "amplitude": base, "rate": 0.5 + rng.uniform()}
    size = (n_steps + 1) * (n_steps + 2) // 2
    return {"kind": "table", "values": (base + spread * rng.uniform(-1, 1, size)).tolist()}


def _h1_scenario(n_steps, n_paths, seed, kind, n_atoms, mode):
    rng = np.random.default_rng(seed)
    return validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": n_steps},
        "initial": 1.0,
        "gamma": 0.3,
        "alpha_kernel": _two_time_kernel(kind, 0.05, 0.05, n_steps, rng),
        "beta_kernel": _two_time_kernel(kind, 0.2, 0.1, n_steps, rng),
        "levy": {"atoms": [[-0.1 * (q + 1), 0.5 + q] for q in range(n_atoms)]},
        "pi_kernels": [_two_time_kernel(kind, -0.1, 0.05, n_steps, rng) for _ in range(n_atoms)],
        "filtration": {"mode": mode, "delay": 2.0 / n_steps if mode == "delay" else 0.0},
        "mc": {"n_paths": n_paths, "seed": seed, "n_blocks": 1},
        "regression": {"degree": 2, "state": ["x"]},
    })


@settings(max_examples=40, deadline=None)
@given(
    n_steps=st.integers(2, 12),
    n_paths=st.integers(20, 300),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["exp_decay", "table"]),
    n_atoms=st.integers(0, 2),
    mode=st.sampled_from(["full", "delay"]),
    where=st.sampled_from(["first", "mid", "last"]),
)
def test_memory_hamiltonian_matches_project_then_contract(
    n_steps, n_paths, seed, kind, n_atoms, mode, where
):
    # projection is linear: contracting the gradients first and projecting
    # the (N, 1 + m) block once moves the estimate by rounding only, relative
    # to the per-path spread where the mean cancels
    spec = _h1_scenario(n_steps, n_paths, seed, kind, n_atoms, mode)
    noise = generate_noise(spec.grid, spec.levy, n_paths, seed, 1)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    adj = build_adjoint_state(spec, fwd)
    k = {"first": 0, "mid": n_steps // 2, "last": n_steps - 1}[where]
    x = float(fwd.values[:, k].mean())
    got = hamiltonian_h1(k, x, fwd, adj, spec, noise, one)
    want = _h1_project_then_contract(k, x, fwd, adj, spec, noise, one)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * want[1] * np.sqrt(n_paths))


@pytest.mark.parametrize("k", [0, 20])
def test_memory_hamiltonian_peak_is_a_few_rows(k):
    # the whole call, sweeps included: the first variations reach the
    # contraction one node row at a time and the lifted sweeps keep no
    # state; the sweeps read the counts as drawn.  The peak, about 12 rows
    # at either k, is the lift's running rows, the gradient's temporaries
    # and the regression design; no node matrix is formed.  One (n + 1 - k, N)
    # direction, a float copy of the counts, an outer-product source, or an
    # (N, n+1) array of P/X or of the gradients would break the bound.
    spec = _h1_scenario(40, 5000, 7, "exp_decay", 1, "full")
    noise = generate_noise(spec.grid, spec.levy, 5000, 7, 1)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    adj = build_adjoint_state(spec, fwd)
    hamiltonian_h1(k, 1.0, fwd, adj, spec, noise, one)  # first-call imports
    tracemalloc.start()
    try:
        hamiltonian_h1(k, 1.0, fwd, adj, spec, noise, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 5000 * 8


@pytest.mark.parametrize("node", [-1, -150, 21])
def test_memory_hamiltonian_rejects_a_node_off_the_grid(node):
    spec = _h1_scenario(20, 400, 3, "exp_decay", 1, "full")
    noise = generate_noise(spec.grid, spec.levy, 400, 3, 1)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    with pytest.raises(ValidationError, match="0 <= node <= n = 20"):
        hamiltonian_h1(node, 1.0, fwd, build_adjoint_state(spec, fwd), spec, noise, one)


def test_memory_hamiltonian_rejects_noise_on_another_grid():
    # increments of a 40-step grid would be read as if they were the
    # scenario's 20 steps
    spec = _h1_scenario(20, 400, 3, "exp_decay", 1, "full")
    noise = generate_noise(spec.grid, spec.levy, 400, 3, 1)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    fine = generate_noise(build_time_grid(1.0, 40), spec.levy, 400, 3, 1)
    with pytest.raises(ValidationError, match="noise grid does not match scenario grid"):
        hamiltonian_h1(5, 1.0, fwd, build_adjoint_state(spec, fwd), spec, fine, one)


def test_memory_hamiltonian_rejects_noise_of_another_path_count():
    spec = _h1_scenario(20, 400, 3, "exp_decay", 1, "full")
    noise = generate_noise(spec.grid, spec.levy, 400, 3, 1)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    fewer = generate_noise(spec.grid, spec.levy, 200, 3, 1)
    with pytest.raises(ValidationError, match="noise has 200 paths but the forward paths have 400"):
        hamiltonian_h1(5, 1.0, fwd, build_adjoint_state(spec, fwd), spec, fewer, one)


def test_memory_hamiltonian_is_zero_at_the_horizon():
    # the integral over [t_n, T] is empty: zero with gradient terms, and with
    # the drift term alone
    spec = _h1_scenario(20, 400, 3, "exp_decay", 1, "full")
    noise = generate_noise(spec.grid, spec.levy, 400, 3, 1)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    assert hamiltonian_h1(20, 1.0, fwd, build_adjoint_state(spec, fwd), spec, noise, one) \
        == (0.0, 0.0)
    drift_only = make_scenario(alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0})
    n = drift_only.grid.n_steps
    assert hamiltonian_h1(n, 1.0, None, _unit_state_adjoint(drift_only), drift_only) == (0.0, 0.0)


def test_memory_hamiltonian_rejects_gradient_paths_short_of_the_horizon():
    # the adjoint reaches the horizon but the paths the first variations
    # run on stop a node short: a ValidationError, not an IndexError
    spec = _h1_scenario(20, 400, 3, "exp_decay", 1, "full")
    noise = generate_noise(spec.grid, spec.levy, 400, 3, 1)
    one = ControlFn.constant(1.0, spec.grid)
    adj = build_adjoint_state(spec, simulate_fsvie(spec, noise, one))
    short = simulate_fsvie(spec, noise, one, through_node=19)
    with pytest.raises(ValidationError, match="through the horizon"):
        hamiltonian_h1(5, 1.0, short, adj, spec, noise, one)


@pytest.mark.parametrize("other", ["same_count", "more_paths"])
def test_memory_hamiltonian_rejects_gradients_off_other_paths(other):
    # the ratio comes from adjoint.fwd and the gradients from fwd: paths of
    # another bundle gave another estimate silently, and a bundle of another
    # path count a numpy broadcast error
    spec = _h1_scenario(20, 400, 3, "exp_decay", 1, "full")
    noise = generate_noise(spec.grid, spec.levy, 400, 3, 1)
    one = ControlFn.constant(1.0, spec.grid)
    adj = build_adjoint_state(spec, simulate_fsvie(spec, noise, one))
    n_paths = {"same_count": 400, "more_paths": 800}[other]
    elsewhere = generate_noise(spec.grid, spec.levy, n_paths, 4, 1)
    fwd = simulate_fsvie(spec, elsewhere, one)
    with pytest.raises(ValidationError, match="fwd must be adjoint.fwd"):
        hamiltonian_h1(5, 1.0, fwd, adj, spec, elsewhere, one)


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
    want = -0.2 * (adj.big_p[40] / fwd.row(40)).mean()
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
    want = -pi / (1 + pi) * (adj.big_p[40] / fwd.row(40)).mean()
    assert abs(got - want) < 0.02 * abs(want)
