import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control.bsde import solve_bsde
from volterra_control.bsvie import solve_bsvie
from volterra_control.condexp import (
    CondExpEngine,
    Design,
    _basis,
    _monomial_powers,
    _standardise,
)
from volterra_control.controls import ControlFn
from volterra_control.fsvie import ForwardPaths, simulate_fsvie
from volterra_control.model import (
    FiltrationMode,
    LevyMeasure,
    RegressionSpec,
    ValidationError,
    build_time_grid,
    validate_scenario,
)
from volterra_control.paths import generate_noise


def _given_state(grid, x):
    """The array ``x`` (paths, nodes) as the forward state an engine reads."""
    return ForwardPaths(grid=grid, state=x, log_state=False)


def _full_engine(states, degree):
    """A full-information engine on a two-step grid whose ``x`` state at
    node 1 is the sample ``states`` (paths along axis 0)."""
    n_paths = states.shape[0]
    noise = generate_noise(build_time_grid(1.0, 2), LevyMeasure.from_atoms([]), n_paths, 0, 1)
    ones = np.ones(n_paths)
    return CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=degree, variables=("x",)),
        noise, x_paths=_given_state(noise.grid, np.column_stack([ones, states, ones])),
    )


def test_exact_linear_target_recovered():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    y = 3.0 * x + 1.0
    engine = _full_engine(x, degree=2)
    design = engine._design(1)
    coef = design.product_coefficients(y[None, :], [])[0, 0]
    # standardized basis rows: 1, (x - m1) / s1, (x^2 - m2) / s2
    assert abs(coef[0] - (3.0 * x.mean() + 1.0)) < 1e-10
    assert abs(coef[1] - 3.0 * x.std()) < 1e-10
    assert abs(coef[2]) < 1e-10
    np.testing.assert_allclose(engine.project(1, y), y, rtol=0, atol=1e-10)


def test_martingale_regression_slope():
    # project B(1) on B(0.5): population slope 1, intercept 0
    rng = np.random.default_rng(1)
    n = 20_000
    b_half = rng.normal(scale=math.sqrt(0.5), size=n)
    b_one = b_half + rng.normal(scale=math.sqrt(0.5), size=n)
    engine = _full_engine(b_half, degree=1)
    fitted = engine.project(1, b_one)
    # slope and intercept of the fitted (exactly affine) values, with the
    # classic OLS standard errors
    slope, intercept = np.polyfit(b_half, fitted, 1)
    resid_var = np.sum((b_one - fitted) ** 2) / (n - 2)
    sxx = np.sum((b_half - b_half.mean()) ** 2)
    se_slope = math.sqrt(resid_var / sxx)
    se_inter = math.sqrt(resid_var * (1.0 / n + b_half.mean() ** 2 / sxx))
    assert abs(slope - 1.0) <= 3 * se_slope
    assert abs(intercept) <= 3 * se_inter
    np.testing.assert_allclose(fitted, intercept + slope * b_half, rtol=0, atol=1e-12)


def test_constant_targets_reproduced():
    x = np.linspace(-1, 1, 50)
    fitted = _full_engine(x, degree=3).project(1, np.full(50, 2.5))
    assert np.allclose(fitted, 2.5, atol=1e-12)


def test_identity_fit_prediction():
    x = np.linspace(-2, 2, 100)
    fitted = _full_engine(x, degree=2).project(1, x)
    np.testing.assert_allclose(fitted, x, rtol=0, atol=1e-10)


def test_cached_designs_match_uncached_in_any_node_order():
    # a cached design is keyed by its conditioning node: revisiting nodes in
    # any order must give what a fresh design for that node gives
    noise, targets, _ = _noise_and_targets(6, 300, 3, 2)
    reg = RegressionSpec(degree=2, variables=("brownian",))
    cached = CondExpEngine(FiltrationMode(mode="full"), reg, noise, cache_designs=True)
    fresh = CondExpEngine(FiltrationMode(mode="full"), reg, noise, cache_designs=False)
    for node in (3, 5, 3, 5):
        np.testing.assert_array_equal(cached.project(node, targets), fresh.project(node, targets))
        np.testing.assert_array_equal(cached.project(node, targets[:, 0]),
                                      fresh.project(node, targets[:, 0]))
    assert sorted(cached._designs) == [3, 5] and not fresh._designs


def test_degenerate_state_rescued_by_ridge():
    # constant regressor: the design is rank-deficient; the rescue keeps the
    # sample mean
    x = np.full(200, 3.0)
    y = np.linspace(0, 1, 200)
    engine = _full_engine(x, degree=2)
    fitted = engine.project(1, y)
    assert engine._design(1).ridged
    assert np.allclose(fitted, y.mean(), atol=1e-8)


def test_tower_property_and_contraction():
    rng = np.random.default_rng(4)
    x = rng.normal(size=5000)
    y = np.sin(x) + 0.5 * rng.normal(size=5000)
    fitted = _full_engine(x, degree=3).project(1, y)
    assert abs(fitted.mean() - y.mean()) < 1e-10
    assert np.sum(fitted**2) <= np.sum(y**2) * (1 + 1e-10)
    # projecting the projection changes nothing
    np.testing.assert_allclose(_full_engine(x, degree=3).project(1, fitted), fitted,
                               rtol=0, atol=1e-10)


def test_conditional_mean_full_on_deterministic_targets():
    rng = np.random.default_rng(5)
    states = rng.normal(size=300)
    out = _full_engine(states, degree=2).project(1, np.full(300, 4.2))
    assert np.allclose(out, 4.2, atol=1e-10)


def test_delay_equal_to_horizon_matches_trivial():
    grid = build_time_grid(1.0, 20)
    levy = LevyMeasure.from_atoms([])
    noise = generate_noise(grid, levy, n_paths=500, seed=8, n_blocks=1)
    reg = RegressionSpec(degree=2, variables=("brownian",))
    delayed = CondExpEngine(FiltrationMode(mode="delay", delay=1.0), reg, noise)
    trivial = CondExpEngine(FiltrationMode(mode="trivial"), reg, noise)
    targets = noise.brownian_levels[:, -1] ** 2
    for node in (5, 13, 19):
        assert np.allclose(delayed.project(node, targets),
                           trivial.project(node, targets), atol=1e-12)


def test_delay_lags_the_conditioning_node():
    grid = build_time_grid(1.0, 20)
    engine = CondExpEngine(
        FiltrationMode(mode="delay", delay=0.25),
        RegressionSpec(degree=1, variables=("brownian",)),
        generate_noise(grid, LevyMeasure.from_atoms([]), 100, 1, 1),
    )
    assert engine.conditioning_node(10) == 5
    assert engine.conditioning_node(3) == 0


def test_n_basis_is_the_width_of_every_design_but_the_intercept():
    # the number of basis functions is the width of every design at a node
    # that sees information; a node that sees none keeps the intercept alone
    grid = build_time_grid(1.0, 8)
    noise = generate_noise(grid, LevyMeasure.from_atoms([[0.1, 1.0], [-0.2, 2.0]]), 200, 3, 1)
    x_paths = _given_state(grid, np.exp(noise.brownian_levels))
    reg = RegressionSpec(degree=2, variables=("log_x", "brownian", "jump_counts"))
    for mode, delay, width in (("full", 0.0, math.comb(4 + 2, 2)),
                               ("delay", 0.25, math.comb(4 + 2, 2)), ("trivial", 0.0, 1)):
        engine = CondExpEngine(FiltrationMode(mode=mode, delay=delay), reg, noise, x_paths)
        widths = [engine.design_at(r).phi.shape[0] for r in range(grid.n_steps + 1)]
        assert max(widths) == width and set(widths) <= {1, width}
        for r, w in enumerate(widths):
            sees_none = mode == "trivial" or engine.conditioning_node(r) == 0
            assert (w == 1) == sees_none


@pytest.mark.parametrize("variables", [("x", "brownian"), ("x",),
                                       ("log_x", "brownian", "jump_counts")])
def test_a_declared_state_without_forward_paths_is_rejected(variables):
    # an engine without forward paths cannot read x: it says which variable,
    # rather than regressing on the rest of the state
    noise = generate_noise(build_time_grid(1.0, 8), LevyMeasure.from_atoms([[0.1, 1.0]]), 200, 3, 1)
    engine = CondExpEngine(FiltrationMode(mode="full"),
                           RegressionSpec(degree=2, variables=variables), noise)
    with pytest.raises(ValidationError, match=repr(variables[0])):
        engine.design_at(5)


@pytest.mark.parametrize("variables", [("jump_counts",)])
def test_a_state_of_counts_without_atoms_names_its_variables(variables):
    # the counts of a measure without atoms are no row at all: the error
    # names the declared state and why it is empty.  A repeated entry is
    # refused before, when the spec is built (below)
    noise = generate_noise(build_time_grid(1.0, 8), LevyMeasure.from_atoms([]), 200, 3, 1)
    engine = CondExpEngine(FiltrationMode(mode="full"),
                           RegressionSpec(degree=2, variables=variables), noise)
    with pytest.raises(ValidationError, match=r"\['jump_counts'\] has no rows.*no atoms"):
        engine.design_at(5)


@pytest.mark.parametrize("variables", [("jump_counts", "jump_counts"),
                                       ("x", "brownian", "x", "brownian")])
def test_a_repeated_state_entry_is_refused_when_the_spec_is_built(variables):
    # its design would be singular, and the ridge would rescue it unseen
    with pytest.raises(ValidationError, match=f"entry {variables[0]!r} is repeated"):
        RegressionSpec(degree=2, variables=variables)


def test_an_empty_state_outside_trivial_mode_is_rejected():
    noise = generate_noise(build_time_grid(1.0, 8), LevyMeasure.from_atoms([]), 200, 3, 1)
    engine = CondExpEngine(FiltrationMode(mode="full"), RegressionSpec(degree=2, variables=()),
                           noise)
    with pytest.raises(ValidationError, match="no regression state declared"):
        engine.design_at(5)


def test_n_basis_on_a_state_that_stops_before_the_horizon():
    # the utility evaluators simulate through node n - 1 only: building the
    # designs must not read node n
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": 10},
        "initial": 1.0,
        "gamma": 0.0,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 0.2},
        "levy": {"atoms": [[-0.1, 2.0]]},
        "pi_kernels": [{"kind": "constant", "value": -0.1}],
        "filtration": {"mode": "full"},
        "mc": {"n_paths": 200, "seed": 4, "n_blocks": 1},
        "regression": {"degree": 2, "state": ["x", "jump_counts"]},
    })
    noise = generate_noise(spec.grid, spec.levy, 200, 4, 1)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one, through_node=9)
    assert fwd.log_state and fwd.last_node == 9
    engine = CondExpEngine(spec.filtration, spec.regression, noise, x_paths=fwd)
    for node in range(1, 10):
        assert engine.design_at(node).phi.shape[0] == math.comb(2 + 2, 2)
    assert "values" not in vars(fwd)  # designed without forming X
    for node in range(1, 10):
        # one exponentiated row is the row of the whole exponentiated state
        np.testing.assert_array_equal(fwd.row(node), np.exp(fwd.state)[:, node])


def test_stored_blocks_are_as_wide_as_their_design():
    # the utility evaluators simulate through node n - 1 only: every design
    # the solvers read stops there, and each step keeps its Z/K block at the
    # width of its own design, the intercept alone where information is trivial
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": 10},
        "initial": 1.0,
        "gamma": 0.0,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 0.2},
        "levy": {"atoms": [[-0.1, 2.0]]},
        "pi_kernels": [{"kind": "constant", "value": -0.1}],
        "filtration": {"mode": "full"},
        "mc": {"n_paths": 200, "seed": 4, "n_blocks": 1},
        "regression": {"degree": 2, "state": ["x", "jump_counts"]},
    })
    n = spec.grid.n_steps
    noise = generate_noise(spec.grid, spec.levy, 200, 4, 1)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one, through_node=n - 1)
    assert fwd.log_state and fwd.last_node == n - 1
    terminal = noise.brownian_levels[:, -1] + noise.count_levels[0][:, -1]

    def driver(i, r, y, z, k, x):
        return 0.1 * z + 0.1 * k[0]

    for mode in ("full", "delay", "trivial"):
        engine = CondExpEngine(FiltrationMode(mode=mode, delay=0.25), spec.regression, noise,
                               x_paths=fwd)
        widths = [engine.design_at(r).phi.shape[0] for r in range(n)]
        trivial = [mode == "trivial" or engine.conditioning_node(r) == 0 for r in range(n)]
        assert [w == 1 for w in widths] == trivial
        assert set(widths) == ({1} if mode == "trivial" else {1, math.comb(2 + 2, 2)})
        bsde = solve_bsde(terminal, None, noise, engine)
        assert [z.shape for z in bsde.z] == [(w,) for w in widths]
        assert [k.shape for k in bsde.k] == [(1, w) for w in widths]
        # a second pass reads the first pass's blocks at their width
        sol = solve_bsvie(spec.grid.nodes[:, None] * terminal, driver, noise, engine, tol=0.5)
        assert len(sol.iteration_log) >= 2
        assert [z.shape for z in sol.z] == [(r + 1, w) for r, w in enumerate(widths)]
        assert [k.shape for k in sol.k] == [(1, r + 1, w) for r, w in enumerate(widths)]
    assert "values" not in vars(fwd)  # the designs read X one row at a time
    for node in range(n):
        # one exponentiated row is the row of the whole exponentiated state
        np.testing.assert_array_equal(fwd.row(node), np.exp(fwd.state)[:, node])


def test_delay_zero_collapses_to_full():
    mode = FiltrationMode(mode="delay", delay=0.0)
    assert mode.mode == "full"


# --------------------------------------------------------------------------- #
# the engine's projector against per-column least squares
# --------------------------------------------------------------------------- #

def _standardised_design(columns, degree):
    """Standardized monomials of one or two state columns, paths along axis 0."""
    if len(columns) == 1:
        cols = [columns[0] ** e for e in range(degree + 1)]
    else:
        a, b = columns
        cols = [a**i * b**j for i in range(degree + 1) for j in range(degree + 1 - i)]
    phi = np.column_stack(cols)
    mean, scale = phi.mean(axis=0), phi.std(axis=0)
    mean[0], scale[0] = 0.0, 1.0
    return (phi - mean) / scale


def _lstsq_fit(design, targets):
    """Fitted values of each target column, one ``lstsq`` per column."""
    targets = targets.reshape(targets.shape[0], -1)
    cols = [design @ np.linalg.lstsq(design, t, rcond=None)[0] for t in targets.T]
    return np.column_stack(cols)


def _tolerance(design, targets):
    """The normal equations lose up to ``cond(design)^2 * eps`` relative to
    ``lstsq``; allow a generous constant on that bound."""
    return 1e3 * np.finfo(float).eps * np.linalg.cond(design) ** 2 * np.abs(targets).max()


def _noise_and_targets(n_steps, n_paths, seed, k):
    grid = build_time_grid(1.0, n_steps)
    noise = generate_noise(grid, LevyMeasure.from_atoms([]), n_paths, seed, 1)
    rng = np.random.default_rng(seed)
    b_end = noise.brownian_levels[:, -1]
    targets = np.column_stack([b_end ** (c % 3 + 1) + rng.normal(size=n_paths) for c in range(k)])
    return noise, targets, rng


@settings(max_examples=30, deadline=None)
@given(
    n_steps=st.integers(2, 12),
    n_paths=st.integers(40, 400),
    seed=st.integers(0, 2**16),
    degree=st.integers(1, 3),
    with_x=st.booleans(),
    k=st.integers(1, 5),
    data=st.data(),
)
def test_projector_matches_columnwise_lstsq(n_steps, n_paths, seed, degree, with_x, k, data):
    noise, targets, rng = _noise_and_targets(n_steps, n_paths, seed, k)
    x_paths = np.exp(0.3 * rng.normal(size=(n_paths, n_steps + 1))) if with_x else None
    variables = ("x", "brownian") if with_x else ("brownian",)
    engine = CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=degree, variables=variables),
        noise, x_paths=_given_state(noise.grid, x_paths) if with_x else None,
    )
    node = data.draw(st.integers(1, n_steps))
    state = [noise.brownian_levels[:, node]]
    if with_x:
        state.insert(0, x_paths[:, node])
    design = _standardised_design(state, degree)
    expected = _lstsq_fit(design, targets)
    atol = _tolerance(design, targets)
    block = engine.project(node, targets)
    assert block.shape == targets.shape
    np.testing.assert_allclose(block, expected, rtol=0, atol=atol)
    single = engine.project(node, targets[:, 0])
    assert single.shape == (n_paths,)
    np.testing.assert_allclose(single, expected[:, 0], rtol=0, atol=atol)


@settings(max_examples=20, deadline=None)
@given(
    n_steps=st.integers(4, 12),
    n_paths=st.integers(40, 400),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_projector_trivial_and_delay_modes(n_steps, n_paths, seed, k, data):
    noise, targets, _ = _noise_and_targets(n_steps, n_paths, seed, k)
    reg = RegressionSpec(degree=2, variables=("brownian",))
    means = np.broadcast_to([t.mean() for t in targets.T], targets.shape)
    mean_tol = {"rtol": 1e-14, "atol": 1e-14 * np.abs(targets).max()}
    node = data.draw(st.integers(0, n_steps))
    trivial = CondExpEngine(FiltrationMode(mode="trivial"), reg, noise)
    np.testing.assert_allclose(trivial.project(node, targets), means, **mean_tol)
    np.testing.assert_allclose(trivial.project(node, targets[:, 0]), means[:, 0], **mean_tol)
    # the information at t = 0 is trivial whatever the mode
    full = CondExpEngine(FiltrationMode(mode="full"), reg, noise)
    np.testing.assert_array_equal(full.project(0, targets), trivial.project(0, targets))

    lag = data.draw(st.integers(1, n_steps))
    delayed = CondExpEngine(FiltrationMode(mode="delay", delay=lag * noise.grid.dt), reg, noise)
    cnode = max(node - lag, 0)
    if cnode == 0:
        np.testing.assert_allclose(delayed.project(node, targets), means, **mean_tol)
    else:
        design = _standardised_design([noise.brownian_levels[:, cnode]], 2)
        np.testing.assert_allclose(delayed.project(node, targets), _lstsq_fit(design, targets),
                                   rtol=0, atol=_tolerance(design, targets))


def test_near_collinear_design_takes_the_ridge_path():
    # x duplicates the Brownian level up to 1e-13: the design condition number
    # is far past the ridge threshold, so the fit is the ridge least-squares
    # solution, written here as one lstsq on the penalty-augmented system
    n_steps, n_paths, node = 8, 300, 5
    noise, targets, rng = _noise_and_targets(n_steps, n_paths, 3, 3)
    x_paths = noise.brownian_levels + 1e-13 * rng.normal(size=(n_paths, n_steps + 1))
    engine = CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=1, variables=("x", "brownian")),
        noise, x_paths=_given_state(noise.grid, x_paths),
    )
    design = _standardised_design([x_paths[:, node], noise.brownian_levels[:, node]], 1)
    p = design.shape[1]
    penalty = np.eye(p) * np.sqrt(1e-8 * np.trace(design.T @ design) / p)
    penalty[0, 0] = 0.0
    augmented = np.vstack([design, penalty])
    coef = np.linalg.lstsq(augmented, np.vstack([targets, np.zeros((p, 3))]), rcond=None)[0]
    fitted = engine.project(node, targets)
    assert engine._design(node).ridged
    np.testing.assert_allclose(fitted, design @ coef, rtol=0, atol=1e-12 * np.abs(targets).max())
    # the intercept is never penalized, so the sample means survive
    np.testing.assert_allclose(fitted.mean(axis=0), targets.mean(axis=0), atol=1e-12)


# --------------------------------------------------------------------------- #
# the backward step keeps every path mean
# --------------------------------------------------------------------------- #
# Every design keeps the intercept, and the ridge leaves it unpenalized, so a
# step's fitted values have the path mean of the rows it was handed.  The
# utility cross-check (bsde.recursive_utility_bsde) rests on this: for its
# affine generator the solve's Y(0) is the mean of the per-path Euler sums.

def _mean_keeping_engine(case, noise):
    if case == "ridge":
        # a constant x centres to a zero row: every design past node 0 is
        # singular, and the ridge rescues it
        x = np.full(noise.brownian_levels.shape, 3.0)
        return CondExpEngine(FiltrationMode(mode="full"),
                             RegressionSpec(degree=1, variables=("brownian", "x")), noise,
                             x_paths=_given_state(noise.grid, x))
    return CondExpEngine(FiltrationMode(mode=case, delay=0.25),
                         RegressionSpec(degree=2, variables=("brownian", "jump_counts")), noise)


@pytest.mark.parametrize("n_rows", ["one", "family"])
@pytest.mark.parametrize("case", ["full", "delay", "trivial", "ridge"])
def test_backward_columns_keep_the_path_mean_of_every_live_row(case, n_rows):
    n_steps, n_paths = 8, 400
    noise = generate_noise(build_time_grid(1.0, n_steps), LevyMeasure.from_atoms([[-0.1, 2.0]]),
                           n_paths, 6, 1)
    engine = _mean_keeping_engine(case, noise)
    rng = np.random.default_rng(6)
    rows = 1 if n_rows == "one" else n_steps + 1
    b_end = noise.brownian_levels[:, -1]
    y = b_end ** 2 + noise.count_levels[0, :, -1] + rng.normal(size=(rows, n_paths))
    handed = y.mean(axis=1)
    conditioning, ridged = [], []
    for r, design, live, _ in engine.backward_columns(y):
        np.testing.assert_allclose(live.mean(axis=1), handed[:len(live)], rtol=0,
                                   atol=1e-12 * np.abs(live).max())
        conditioning.append(design.phi.shape[0] > 1)
        ridged.append(design.ridged)
        # a state-dependent generator term, so each step is handed new rows
        live += np.sin(noise.brownian_levels[:, r]) * rng.uniform(0.5, 1.5, size=(len(live), 1))
        handed = live.mean(axis=1)
    # node 0 always conditions on nothing; delay conditions on nothing up to its lag
    assert not conditioning[-1]
    assert sum(conditioning) == {"full": 7, "delay": 5, "trivial": 0, "ridge": 7}[case]
    assert any(ridged) == (case == "ridge")


# --------------------------------------------------------------------------- #
# Gram-space standardisation against the two-pass reference
# --------------------------------------------------------------------------- #

def _two_pass_standardise(phi):
    """The earlier ``_standardise``: row means and standard deviations in
    separate passes over the ``(p, N)`` basis, then the Gram recomputed."""
    mean = phi.mean(axis=1)
    scale = phi.std(axis=1)
    scale[scale == 0.0] = 1.0
    mean[0], scale[0] = 0.0, 1.0
    phi -= mean[:, None]
    phi /= scale[:, None]
    phi[0] = 1.0
    return phi @ phi.T


@settings(max_examples=60, deadline=None)
@given(
    n_paths=st.integers(8, 400),
    seed=st.integers(0, 2**16),
    degree=st.integers(1, 3),
    kinds=st.lists(st.sampled_from(["normal", "constant", "offset"]), min_size=1, max_size=2),
    constant=st.sampled_from([0.0, 0.1, -3.7, 1e3]),
)
def test_gram_standardisation_matches_two_pass(n_paths, seed, degree, kinds, constant):
    # "offset" rows have a mean far from zero and a small standard deviation
    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds:
        if kind == "constant":
            rows.append(np.full(n_paths, constant))
        elif kind == "offset":
            rows.append(50.0 + 1e-3 * rng.normal(size=n_paths))
        else:
            rows.append(rng.normal(size=n_paths))
    phi = _basis(rows, _monomial_powers(len(rows), degree))
    ref = phi.copy()
    ref_gram = _two_pass_standardise(ref)
    gram = _standardise(phi)
    np.testing.assert_allclose(phi, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    np.testing.assert_allclose(gram, ref_gram, rtol=0, atol=1e-12 * n_paths)
    assert np.all(phi[0] == 1.0)


# --------------------------------------------------------------------------- #
# product coefficients against per-column least squares
# --------------------------------------------------------------------------- #

@settings(max_examples=40, deadline=None)
@given(
    n_paths=st.integers(60, 400),
    seed=st.integers(0, 2**16),
    solver=st.sampled_from(["normal", "pinv", "ridge"]),
    n_factors=st.integers(0, 2),
    data=st.data(),
)
def test_product_coefficients_match_lstsq(n_paths, seed, solver, n_factors, data):
    # a second state row near the first makes the Gram matrix too
    # ill-conditioned for the normal equations (pinv) or the design itself
    # past the ridge threshold
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n_paths)
    b = {"normal": rng.normal(size=n_paths), "pinv": a + 1e-7 * rng.normal(size=n_paths),
         "ridge": a + 1e-13 * rng.normal(size=n_paths)}[solver]
    design = Design.from_rows([a, b], 1)
    assert (design.solver is not None) == (solver != "normal")
    assert design.ridged == (solver == "ridge")
    phi = design.phi.T
    p = phi.shape[1]
    k = data.draw(st.integers(1, p + 2))  # values narrower and wider than the basis
    values = rng.normal(size=(k, n_paths)) + a
    factors = [rng.normal(size=n_paths) for _ in range(n_factors)]
    coef = design.product_coefficients(values, factors)
    assert coef.shape == (1 + n_factors, k, p)
    if solver == "ridge":
        # the ridge least-squares solution, one lstsq on the penalty-augmented system
        penalty = np.eye(p) * np.sqrt(1e-8 * np.trace(phi.T @ phi) / p)
        penalty[0, 0] = 0.0
        phi, pad = np.vstack([phi, penalty]), np.zeros(p)
    else:
        pad = np.zeros(0)
    for j, f in enumerate([np.ones(n_paths)] + factors):
        targets = values * f
        ref = [np.linalg.lstsq(phi, np.concatenate([t, pad]), rcond=None)[0] for t in targets]
        # fitted values agree where the coefficients of a near-collinear basis need not
        atol = {"normal": _tolerance(design.phi.T, targets.T), "pinv": 1e-6 * np.abs(targets).max(),
                "ridge": 1e-10 * np.abs(targets).max()}[solver]
        np.testing.assert_allclose(coef[j] @ design.phi, np.array(ref) @ design.phi,
                                   rtol=0, atol=atol)
