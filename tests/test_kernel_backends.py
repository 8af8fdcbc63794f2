import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volterra_control import _kernels
from volterra_control.controls import ControlFn
from volterra_control.fsvie import FirstVariation, first_variation, simulate_fsvie
from volterra_control.model import validate_scenario
from volterra_control.paths import generate_noise


def _random_problem(seed=0, n_steps=40, n_paths=300, n_atoms=2):
    rng = np.random.default_rng(seed)
    n_nodes = n_steps + 1
    source = np.repeat(rng.normal(size=(n_nodes, 1)), n_paths, axis=1)
    a = np.tril(rng.normal(scale=0.2, size=(n_nodes, n_nodes)))
    b = np.tril(rng.normal(scale=0.3, size=(n_nodes, n_nodes)))
    c = rng.uniform(0.0, 1.0, size=n_steps)
    db = rng.normal(scale=0.1, size=(n_paths, n_steps))
    p = np.tril(rng.normal(scale=0.2, size=(n_atoms, n_nodes, n_nodes)))
    cj = rng.normal(scale=0.05, size=(n_atoms, n_paths, n_steps))
    return source, a, c, b, db, p, cj, 0.025


def _direct_recursion(source, a, c, b, db, p, cj, dt):
    """Plain per-path recursion of the left-point scheme."""
    n_nodes, n_paths = source.shape
    u = np.empty((n_paths, n_nodes))
    for path in range(n_paths):
        for i in range(n_nodes):
            acc = source[i, path]
            for j in range(i):
                term = (a[i, j] - c[j]) * dt + b[i, j] * db[path, j]
                for q in range(p.shape[0]):
                    term += p[q, i, j] * cj[q, path, j]
                acc += u[path, j] * term
            u[path, i] = acc
    return u


def test_numpy_backend_matches_direct_recursion():
    args = _random_problem()
    got = _kernels.volterra_sweep(*args)
    assert got.T.flags.c_contiguous  # node-major storage, path-major view
    np.testing.assert_allclose(got, _direct_recursion(*args), rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n_atoms=st.integers(0, 2),
    n_paths=st.integers(1, 5),
    n_nodes=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_atoms=0, n_paths=1, n_nodes=1, seed=0)
@example(n_atoms=2, n_paths=5, n_nodes=80, seed=0)
def test_sweep_matches_direct_recursion_across_blocks(n_atoms, n_paths, n_nodes, seed):
    # up to 80 nodes: across the block boundaries at rows 32 and 64
    args = _random_problem(seed, n_nodes - 1, n_paths, n_atoms)
    got = _kernels.volterra_sweep(*args)
    assert got.shape == (n_paths, n_nodes)
    np.testing.assert_allclose(got, _direct_recursion(*args), rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------- #
# first variations on their sub-triangle
# --------------------------------------------------------------------------- #

def _full_triangle_first_variation(scenario, noise, control, fwd, k, include_diagonal):
    """Every sweep over the whole triangle, with the source zero below ``start``."""
    grid = scenario.grid
    last = fwd.last_node
    a_nodes = scenario.alpha.at_nodes(grid)[: last + 1, : last + 1]
    b_nodes = scenario.beta.at_nodes(grid)[: last + 1, : last + 1]
    m = scenario.n_atoms
    p_nodes = np.zeros((m, last + 1, last + 1))
    for q, ker in enumerate(scenario.pi_kernels):
        p_nodes[q] = ker.at_nodes(grid)[: last + 1, : last + 1]
    cj = noise.compensated_counts[:, :, :last]
    c_vals = control.values(grid)[:last]
    db = noise.d_brownian[:, :last]
    xk = fwd.values[:, k]
    start = k if include_diagonal else k + 1

    def run(source_col):
        source = np.zeros((last + 1, fwd.n_paths))
        source[start:, :] = source_col[start:, None] * xk[None, :]
        return _kernels.volterra_sweep(source, a_nodes, c_vals, b_nodes, db, p_nodes, cj, grid.dt)

    jumps = np.zeros((m, fwd.n_paths, last + 1))
    for q in range(m):
        jumps[q] = run(p_nodes[q][:, k])
    return FirstVariation(grid=grid, node=k, brownian=run(b_nodes[:, k]), jump=jumps)


@pytest.fixture(scope="module")
def two_time_case():
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": 70},
        "initial": 1.0,
        "gamma": 0.0,
        "alpha_kernel": {"kind": "exp_decay", "amplitude": 0.05, "rate": 1.5},
        "beta_kernel": {"kind": "exp_decay", "amplitude": 0.2, "rate": 0.7},
        "levy": {"atoms": [[-0.1, 0.5], [0.25, 1.0]]},
        "pi_kernels": [
            {"kind": "exp_decay", "amplitude": -0.1, "rate": 0.5},
            {"kind": "constant", "value": 0.25},
        ],
        "filtration": {"mode": "trivial"},
        "mc": {"n_paths": 64, "seed": 3, "n_blocks": 1},
    })
    noise = generate_noise(spec.grid, spec.levy, 64, 3, 1)
    control = ControlFn.constant(1.0, spec.grid)
    # stop one node short of the horizon, so the last forward node is a valid k
    fwd = simulate_fsvie(spec, noise, control, through_node=69)
    return spec, noise, control, fwd


@pytest.mark.parametrize("include_diagonal", [True, False])
@pytest.mark.parametrize("k", [0, 68, 69])
def test_first_variation_matches_full_triangle(two_time_case, k, include_diagonal):
    spec, noise, control, fwd = two_time_case
    got = first_variation(spec, noise, control, fwd, k, include_diagonal)
    want = _full_triangle_first_variation(spec, noise, control, fwd, k, include_diagonal)
    start = k if include_diagonal else k + 1
    assert not got.brownian[:, :start].any() and not got.jump[:, :, :start].any()
    np.testing.assert_allclose(got.brownian, want.brownian, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(got.jump, want.jump, rtol=1e-12, atol=1e-14)
