import math
import tracemalloc

import numpy as np
import pytest
from conftest import compensated, utility_case
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control.bsde import (
    recursive_utility,
    recursive_utility_bsde,
    solve_bsde,
)
from volterra_control.condexp import CondExpEngine, Design
from volterra_control.controls import ControlFn
from volterra_control.fsvie import ForwardPaths, simulate_fsvie
from volterra_control.model import (
    FiltrationMode,
    LevyMeasure,
    RegressionSpec,
    ValidationError,
    build_time_grid,
    mean_se,
    validate_scenario,
)
from volterra_control.paths import generate_noise

GRID = build_time_grid(1.0, 100)
EMPTY = LevyMeasure.from_atoms([])


def brownian_engine(noise, degree=2, mode="full"):
    return CondExpEngine(
        FiltrationMode(mode=mode), RegressionSpec(degree=degree, variables=("brownian",)), noise
    )


def _given_state(grid, x):
    """The array ``x`` (paths, nodes) as the forward state an engine reads."""
    return ForwardPaths(grid=grid, state=x, log_state=False)


def on_paths(coef, engine, i):
    """Coefficients held for step ``i`` (``(p,)`` or ``(..., p)``) evaluated
    on the paths through the design that conditions at node ``i``."""
    return engine.design_at(i).evaluate(coef.T).T


def z_paths(sol, engine):
    """``z`` on the paths, path-major ``(n_paths, n_steps)``."""
    return np.stack([on_paths(sol.z[i], engine, i) for i in range(len(sol.z))], axis=1)


def k_paths(sol, engine):
    """``k`` on the paths, path-major ``(n_atoms, n_paths, n_steps)``."""
    return np.stack([on_paths(sol.k[i], engine, i) for i in range(len(sol.k))], axis=2)


def test_null_solution_is_exactly_zero():
    noise = generate_noise(GRID, EMPTY, n_paths=256, seed=1, n_blocks=1)
    sol = solve_bsde(np.zeros(256), None, noise, brownian_engine(noise))
    assert np.all(sol.y == 0.0) and all(np.all(z == 0.0) for z in sol.z)


@pytest.mark.parametrize("shape", [(7,), (10, 2), (10, 1), (1, 10)])
def test_malformed_terminal_is_rejected(shape):
    noise = generate_noise(build_time_grid(1.0, 8), EMPTY, n_paths=10, seed=1, n_blocks=1)
    with pytest.raises(ValidationError, match="terminal needs"):
        solve_bsde(np.ones(shape), None, noise, brownian_engine(noise, mode="trivial"))


@pytest.mark.parametrize("terminal", [2.0, np.full(1, 2.0), np.full(10, 2.0)])
def test_scalar_and_per_path_terminals_are_accepted(terminal):
    noise = generate_noise(build_time_grid(1.0, 8), EMPTY, n_paths=10, seed=1, n_blocks=1)
    sol = solve_bsde(terminal, None, noise, brownian_engine(noise, mode="trivial"))
    assert np.array_equal(sol.y, np.full((10, 9), 2.0))


def test_terminal_square_recovers_variance():
    noise = generate_noise(GRID, EMPTY, n_paths=20_000, seed=2, n_blocks=8)
    terminal = noise.brownian_levels[:, -1] ** 2
    sol = solve_bsde(terminal, None, noise, brownian_engine(noise))
    # projections preserve means, so the estimator error is the terminal SE
    se = terminal.std(ddof=1) / math.sqrt(noise.n_paths)
    assert abs(mean_se(sol.y[:, 0])[0] - 1.0) <= 3 * se


def test_linear_generator_matches_discrete_compounding():
    noise = generate_noise(GRID, EMPTY, n_paths=64, seed=3, n_blocks=1)
    engine = CondExpEngine(FiltrationMode(mode="trivial"), RegressionSpec(), noise)

    def gen(i, t, x, y, z, k):
        return y

    sol = solve_bsde(np.ones(64), gen, noise, engine)
    y0 = mean_se(sol.y[:, 0])[0]
    assert abs(y0 - (1.0 + GRID.dt) ** GRID.n_steps) < 1e-12
    assert abs(y0 - math.e) < 0.02 * math.e


def test_comparison_in_the_terminal_value():
    noise = generate_noise(GRID, EMPTY, n_paths=10_000, seed=4, n_blocks=8)
    terminal = noise.brownian_levels[:, -1]
    engine = brownian_engine(noise)
    lo = solve_bsde(terminal, None, noise, engine)
    hi = solve_bsde(terminal + 0.5, None, noise, engine)
    se = 0.5 / math.sqrt(noise.n_paths)
    assert mean_se(hi.y[:, 0])[0] - mean_se(lo.y[:, 0])[0] >= 0.5 - 3 * se


def test_martingale_coefficient_for_deterministic_integrand():
    # terminal int f dB with f(t) = t: fitted z should track f at each node.
    # The regression state must carry the running integral itself -- lossy
    # states (e.g. the Brownian level alone) cannot represent the target.
    noise = generate_noise(GRID, EMPTY, n_paths=40_000, seed=5, n_blocks=8)
    f = GRID.nodes[:-1]
    running = np.zeros((noise.n_paths, GRID.n_steps + 1))
    np.cumsum(noise.d_brownian * f, axis=1, out=running[:, 1:])
    terminal = running[:, -1]
    engine = CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=2, variables=("x",)),
        noise, x_paths=_given_state(GRID, running),
    )
    sol = solve_bsde(terminal, None, noise, engine)
    for i in (20, 50, 80):
        t = GRID.nodes[i]
        se = math.sqrt((t**3 / 3.0 / GRID.dt + 2 * f[i] ** 2) / noise.n_paths)
        assert abs(on_paths(sol.z[i], engine, i).mean() - f[i]) <= 3 * se


def test_martingale_coefficient_noise_shrinks_with_paths():
    # node-averaged cross-path spread of the fitted coefficient decays like
    # 1/sqrt(n_paths); single nodes are too noisy to compare across seeds
    stds = []
    for n_paths in (5_000, 80_000):
        noise = generate_noise(GRID, EMPTY, n_paths=n_paths, seed=6, n_blocks=8)
        terminal = noise.brownian_levels[:, -1]
        engine = brownian_engine(noise)
        sol = solve_bsde(terminal, None, noise, engine)
        stds.append(z_paths(sol, engine).std(axis=0, ddof=1).mean())
    assert stds[1] < 0.5 * stds[0]


def test_jump_coefficient_for_compensated_count_terminal():
    levy = LevyMeasure.from_atoms([[1.0, 2.0]])
    noise = generate_noise(GRID, levy, n_paths=20_000, seed=7, n_blocks=8)
    terminal = compensated(noise)[0].sum(axis=1)
    engine = CondExpEngine(
        FiltrationMode(mode="full"),
        RegressionSpec(degree=2, variables=("brownian", "jump_counts")),
        noise,
    )
    sol = solve_bsde(terminal, None, noise, engine)
    k_means = k_paths(sol, engine)[0].mean(axis=0)
    assert abs(k_means.mean() - 1.0) < 0.05
    assert np.max(np.abs(k_means - 1.0)) < 0.3


def test_flatness_in_trivial_mode_is_exact():
    noise = generate_noise(GRID, EMPTY, n_paths=128, seed=8, n_blocks=1)
    engine = CondExpEngine(FiltrationMode(mode="trivial"), RegressionSpec(), noise)
    sol = solve_bsde(np.full(128, 5.0), None, noise, engine)
    assert np.all(sol.y == 5.0)


def test_mean_level_flatness_under_regression():
    # projections preserve sample means exactly, so the value curve is flat
    # in expectation even when the state regression loses path information
    noise = generate_noise(GRID, EMPTY, n_paths=5_000, seed=9, n_blocks=8)
    terminal = noise.brownian_levels[:, 50] ** 2
    sol = solve_bsde(terminal, None, noise, brownian_engine(noise))
    means = sol.y.mean(axis=0)
    assert np.max(np.abs(means - terminal.mean())) < 1e-10


# --------------------------------------------------------------------------- #
# recursive utility
# --------------------------------------------------------------------------- #

def test_recursive_utility_unit_rate(s0_small, s0_noise):
    one = ControlFn.constant(1.0, s0_small.grid)
    fwd = simulate_fsvie(s0_small, s0_noise, one, through_node=s0_small.grid.n_steps - 1)
    y0, se = recursive_utility(s0_small, one, fwd)
    assert abs(y0 + 0.485) <= 3 * se
    assert se < 0.01


def test_recursive_utility_optimal_rate(s0_small, s0_noise):
    cstar = ControlFn.theta_cstar(1.0, s0_small.gamma, s0_small.convention)
    fwd = simulate_fsvie(s0_small, s0_noise, cstar, through_node=s0_small.grid.n_steps - 1)
    y0, se = recursive_utility(s0_small, cstar, fwd)
    assert abs(y0 - 0.015) <= 3 * se


def test_recursive_utility_flat_state_zero_log():
    # drift exactly offsetting the unit rate freezes the state at 1, so
    # log(c X) vanishes identically and the discount rate is irrelevant
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": 50},
        "initial": 1.0,
        "gamma": 5.0,
        "alpha_kernel": {"kind": "constant", "value": 1.0},
        "beta_kernel": {"kind": "constant", "value": 0.0},
        "levy": {"atoms": []},
        "pi_kernels": [],
        "filtration": {"mode": "trivial"},
        "mc": {"n_paths": 16, "seed": 1, "n_blocks": 1},
    })
    noise = generate_noise(spec.grid, spec.levy, 16, 1, 1)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    y0, se = recursive_utility(spec, one, fwd)
    assert y0 == 0.0 and se == 0.0


def test_generic_solver_cross_checks_closed_form(s0_small, s0_noise):
    one = ControlFn.constant(1.0, s0_small.grid)
    fwd = simulate_fsvie(s0_small, s0_noise, one, through_node=s0_small.grid.n_steps - 1)
    y0, _ = recursive_utility(s0_small, one, fwd)
    y0_bsde, _ = recursive_utility_bsde(s0_small, one, fwd, s0_noise)
    assert abs(y0_bsde - y0) < 0.02 * abs(y0)


def test_generic_solver_cross_check_with_discounting():
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": 100},
        "initial": 1.0,
        "gamma": 1.0,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 0.2},
        "levy": {"atoms": []},
        "pi_kernels": [],
        "filtration": {"mode": "trivial"},
        "mc": {"n_paths": 20000, "seed": 11, "n_blocks": 8},
    })
    noise = generate_noise(spec.grid, spec.levy, spec.mc.n_paths, spec.mc.seed, 8)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one, through_node=spec.grid.n_steps - 1)
    y0, _ = recursive_utility(spec, one, fwd)
    y0_bsde, _ = recursive_utility_bsde(spec, one, fwd, noise)
    assert abs(y0_bsde - y0) < 0.02 * max(abs(y0), 0.1)


def test_generic_solver_reads_the_log_state_one_row_at_a_time():
    # full information on X, which the exact engine holds as log X through
    # node n - 1: the solve exponentiates one row at a time and gives the
    # values of a solve on the whole array of X
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": 20},
        "initial": 1.0,
        "gamma": 1.0,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 0.2},
        "levy": {"atoms": [[-0.1, 2.0]]},
        "pi_kernels": [{"kind": "constant", "value": -0.1}],
        "filtration": {"mode": "full"},
        "mc": {"n_paths": 2000, "seed": 12, "n_blocks": 2},
        "regression": {"degree": 2, "state": ["x"]},
    })
    n = spec.grid.n_steps
    noise = generate_noise(spec.grid, spec.levy, 2000, 12, 2)
    cstar = ControlFn.theta_cstar(1.0, spec.gamma, spec.convention)
    fwd = simulate_fsvie(spec, noise, cstar, through_node=n - 1)
    got = recursive_utility_bsde(spec, cstar, fwd, noise)
    assert fwd.log_state and "values" not in vars(fwd)
    given = _given_state(spec.grid, np.exp(fwd.state))
    assert recursive_utility_bsde(spec, cstar, given, noise) == got


def _solve_bsde_reference(terminal, driver, noise, engine):
    """The backward recursion with one projection call per target column,
    and each step's R² ``1 - var(y_{i+1} - E_i[y_{i+1}]) / var(y_{i+1})``."""
    n, dt = noise.grid.n_steps, noise.grid.dt
    m = noise.levy.n_atoms
    y = np.empty((noise.n_paths, n + 1))
    z = np.zeros((noise.n_paths, n))
    k = np.zeros((m, noise.n_paths, n))
    r2 = np.ones(n)
    y[:, n] = terminal
    comp = compensated(noise)
    for i in range(n - 1, -1, -1):
        y_next = y[:, i + 1]
        y_proj = engine.project(i, y_next)
        z[:, i] = engine.project(i, y_next * noise.d_brownian[:, i]) / dt
        for q in range(m):
            k[q, :, i] = engine.project(i, y_next * comp[q, :, i]) / (noise.levy.weights[q] * dt)
        g = 0.0 if driver is None else driver(
            i, noise.grid.nodes[i], None, y_proj, z[:, i], k[:, :, i] if m else None)
        y[:, i] = y_proj + g * dt
        if np.var(y_next) > 0.0:
            r2[i] = 1.0 - np.var(y_next - y_proj) / np.var(y_next)
    return y, z, k, r2


def _assert_matches_path_arrays(sol, engine, y, z, k):
    """The held coefficients, evaluated on the paths, are the path arrays."""
    tol = {"rtol": 1e-12, "atol": 1e-12 * np.abs(y).max()}
    widths = [engine.design_at(i).phi.shape[0] for i in range(len(sol.z))]
    assert [z.shape for z in sol.z] == [(p,) for p in widths]
    assert [a.shape for a in sol.k] == [(k.shape[0], p) for p in widths]
    np.testing.assert_allclose(sol.y, y, **tol)
    np.testing.assert_allclose(z_paths(sol, engine), z, **tol)
    np.testing.assert_allclose(k_paths(sol, engine), k, **tol)


@settings(max_examples=20, deadline=None)
@given(
    n_steps=st.integers(2, 20),
    n_paths=st.integers(50, 400),
    seed=st.integers(0, 2**16),
    n_atoms=st.integers(0, 2),
    mode=st.sampled_from(["full", "trivial", "delay"]),
    with_driver=st.booleans(),
)
def test_one_projection_per_step_matches_per_column_calls(
    n_steps, n_paths, seed, n_atoms, mode, with_driver
):
    grid = build_time_grid(1.0, n_steps)
    levy = LevyMeasure.from_atoms([[-0.1 * (q + 1), 1.0 + q] for q in range(n_atoms)])
    noise = generate_noise(grid, levy, n_paths=n_paths, seed=seed, n_blocks=1)
    variables = ("brownian", "jump_counts") if n_atoms else ("brownian",)
    engine = CondExpEngine(
        FiltrationMode(mode=mode, delay=0.3 if mode == "delay" else 0.0),
        RegressionSpec(degree=2, variables=variables), noise,
    )
    terminal = noise.brownian_levels[:, -1] ** 2 + noise.count_levels.sum(axis=0)[:, -1]

    def driver(i, t, x, y, z, k):
        return np.cos(y) + 0.3 * z + (0.0 if k is None else 0.1 * k.sum(axis=0))

    driver = driver if with_driver else None
    sol = solve_bsde(terminal, driver, noise, engine)
    y, z, k, _ = _solve_bsde_reference(terminal, driver, noise, engine)
    _assert_matches_path_arrays(sol, engine, y, z, k)


@pytest.mark.parametrize("mode", ["full", "trivial", "delay"])
def test_r_squared_matches_per_column_reference(mode):
    grid = build_time_grid(1.0, 12)
    noise = generate_noise(grid, LevyMeasure.from_atoms([[-0.1, 2.0]]), n_paths=400, seed=9,
                           n_blocks=1)
    engine = CondExpEngine(
        FiltrationMode(mode=mode, delay=0.25 if mode == "delay" else 0.0),
        RegressionSpec(degree=2, variables=("brownian", "jump_counts")), noise,
    )
    terminal = noise.brownian_levels[:, -1] ** 2 + noise.count_levels[0][:, -1]

    def driver(i, t, x, y, z, k):
        return np.cos(y) + 0.3 * z + 0.1 * k[0]

    sol = solve_bsde(terminal, driver, noise, engine)
    r2 = _solve_bsde_reference(terminal, driver, noise, engine)[3]
    assert r2[-1] < 1.0  # the terminal step's fit is not exact
    np.testing.assert_allclose(sol.r_squared, r2, rtol=0, atol=1e-10)


def _solve_bsde_path_major(terminal, driver, noise, engine, x_paths):
    """The recursion as it ran with path-major ``y``, ``z`` and ``k`` path arrays."""
    n, dt = noise.grid.n_steps, noise.grid.dt
    m = noise.levy.n_atoms
    y = np.empty((noise.n_paths, n + 1))
    z = np.zeros((noise.n_paths, n))
    k = np.zeros((m, noise.n_paths, n))
    y[:, n] = terminal
    comp = compensated(noise)
    targets = np.empty((noise.n_paths, 2 + m), order="F")
    for i in range(n - 1, -1, -1):
        y_next = y[:, i + 1]
        targets[:, 0] = y_next
        np.multiply(y_next, noise.d_brownian[:, i], out=targets[:, 1])
        for q in range(m):
            np.multiply(y_next, comp[q, :, i], out=targets[:, 2 + q])
        proj = engine.project(i, targets)
        z[:, i] = proj[:, 1] / dt
        for q in range(m):
            k[q, :, i] = proj[:, 2 + q] / (noise.levy.weights[q] * dt)
        g = driver(i, noise.grid.nodes[i], x_paths[:, i], proj[:, 0], z[:, i], k[:, :, i])
        y[:, i] = proj[:, 0] + g * dt
    return y, z, k


def test_node_major_storage_matches_path_major_loop():
    grid = build_time_grid(1.0, 30)
    levy = LevyMeasure.from_atoms([[-0.1, 2.0]])
    noise = generate_noise(grid, levy, n_paths=500, seed=37, n_blocks=1)
    x_paths = np.exp(0.2 * noise.brownian_levels - 0.1 * noise.count_levels[0])
    engine = CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=2, variables=("x",)), noise,
        x_paths=_given_state(grid, x_paths),
    )
    terminal = np.log(x_paths[:, -1]) + noise.count_levels[0][:, -1]

    def driver(i, t, x, y, z, k):
        return np.log(x) - 0.5 * y + 0.3 * z + 0.2 * k[0]

    sol = solve_bsde(terminal, driver, noise, engine)
    assert sol.y.shape == (500, 31) and np.swapaxes(sol.y, 0, 1).flags.c_contiguous
    # node 0 conditions on trivial information: the intercept alone
    assert [z.shape for z in sol.z] == [(1,)] + [(3,)] * 29
    _assert_matches_path_arrays(
        sol, engine, *_solve_bsde_path_major(terminal, driver, noise, engine, x_paths))


def test_solve_bsde_holds_no_path_array_of_z_or_k():
    # without a design cache the solve keeps y on the paths and a few
    # per-step rows; an (n, N) array of z or k alone would break the bound
    n, n_paths = 64, 20_000
    grid = build_time_grid(1.0, n)
    levy = LevyMeasure.from_atoms([[-0.1, 2.0]])
    noise = generate_noise(grid, levy, n_paths=n_paths, seed=38, n_blocks=2)
    engine = CondExpEngine(
        FiltrationMode(mode="full"),
        RegressionSpec(degree=2, variables=("brownian", "jump_counts")), noise,
        cache_designs=False,
    )
    terminal = noise.brownian_levels[:, -1] ** 2 + noise.count_levels[0][:, -1]

    def driver(i, t, x, y, z, k):
        return np.cos(y) + 0.3 * z + 0.1 * k[0]

    tracemalloc.start()
    try:
        sol = solve_bsde(terminal, driver, noise, engine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = n_paths * 8
    assert peak <= sol.y.nbytes + (n // 2) * row


@pytest.mark.parametrize("atoms", [[], [[-0.1, 2.0]]], ids=["no_jump", "jump"])
def test_utility_cross_check_is_the_collected_solve_at_node_0(atoms):
    # the Euler sums' mean is the regression solve's Y(0) under every
    # filtration, since every projection keeps the intercept; the two sum
    # in different orders, so they agree to rounding, not bit for bit
    spec, noise, cstar, fwd = utility_case(atoms, n_steps=20, n_paths=2000, seed=21)
    c = cstar.values(spec.grid)
    sign = -1.0  # the discounting convention

    def gen(i, t, x, y, z, k):
        return np.log(c[i] * x) + sign * spec.gamma[i] * y

    y0, _ = recursive_utility_bsde(spec, cstar, fwd, noise)
    for filtration in (spec.filtration, FiltrationMode(mode="delay", delay=0.25),
                       FiltrationMode(mode="trivial")):
        engine = CondExpEngine(filtration, spec.regression, noise, x_paths=fwd)
        sol = solve_bsde(np.zeros(noise.n_paths), gen, noise, engine)
        assert y0 == pytest.approx(sol.y[:, 0].mean(), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("atoms", [[], [[-0.1, 2.0]]], ids=["no_jump", "jump"])
def test_utility_cross_check_se_is_the_spread_of_the_euler_sums(atoms):
    # the per-path explicit-Euler sums
    # S_i = S_{i+1} + (log(c_i X_i) + rate_i S_{i+1}) dt give Y(0) and its SE
    spec, noise, cstar, fwd = utility_case(atoms, n_steps=20, n_paths=2000, seed=21)
    c, x, dt = cstar.values(spec.grid), fwd.values, spec.grid.dt
    sign = -1.0  # the discounting convention
    s = np.zeros(noise.n_paths)
    for i in range(spec.grid.n_steps - 1, -1, -1):
        s = s + (np.log(c[i] * x[:, i]) + sign * spec.gamma[i] * s) * dt
    y0, se = recursive_utility_bsde(spec, cstar, fwd, noise)
    assert se == pytest.approx(s.std(ddof=1) / np.sqrt(noise.n_paths), rel=1e-12, abs=0.0)
    assert y0 == pytest.approx(s.mean(), rel=1e-12, abs=0.0)


def test_utility_cross_check_holds_one_value_row(monkeypatch):
    # the cross-check steps the running Euler sums and a few temporary rows:
    # it builds no regression design and never holds an (n + 1, N) array
    n, n_paths = 64, 20_000
    spec, noise, cstar, fwd = utility_case([[-0.1, 2.0]], n, n_paths, seed=22)

    def no_design(*args):
        raise AssertionError("the utility cross-check built a regression design")

    monkeypatch.setattr(Design, "__init__", no_design)
    tracemalloc.start()
    try:
        recursive_utility_bsde(spec, cstar, fwd, noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n_paths * 8


@pytest.mark.parametrize(("n_steps", "n_paths"), [(20, 1000), (10, 2000)], ids=["paths", "grid"])
def test_utility_cross_check_rejects_noise_of_another_simulation(n_steps, n_paths):
    # the forward paths are 20 steps x 2000 paths
    spec, _, cstar, fwd = utility_case([[-0.1, 2.0]], n_steps=20, n_paths=2000, seed=21)
    foreign = generate_noise(build_time_grid(1.0, n_steps), spec.levy, n_paths, 21, 2)
    with pytest.raises(ValidationError, match="does not match"):
        recursive_utility_bsde(spec, cstar, fwd, foreign)


def test_solve_bsde_rejects_an_engine_on_another_bundle():
    # an engine on 1000 paths cannot step a 2000-path bundle's increments
    noise = generate_noise(GRID, EMPTY, 2000, 1, 1)
    engine = brownian_engine(generate_noise(GRID, EMPTY, 1000, 2, 1))
    with pytest.raises(ValidationError, match="another noise bundle"):
        solve_bsde(np.ones(2000), None, noise, engine)
