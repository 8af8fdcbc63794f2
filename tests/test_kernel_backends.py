import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import compensated
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volterra_control import _kernels, fsvie
from volterra_control.controls import ControlFn
from volterra_control.control import build_adjoint_state, hamiltonian_h1
from volterra_control.fsvie import first_variation, forward_mean_oracle, simulate_fsvie
from volterra_control.model import Kernel, build_time_grid, validate_scenario
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
    """Every sweep over the whole triangle, with the outer-product source
    ``column * X(t_k)`` zero below ``start``: the Brownian direction, then
    one per atom, each node-major ``(last + 1, n_paths)``."""
    grid = scenario.grid
    last = fwd.last_node
    a_nodes = scenario.alpha.at_nodes(grid)[: last + 1, : last + 1]
    b_nodes = scenario.beta.at_nodes(grid)[: last + 1, : last + 1]
    m = scenario.n_atoms
    p_nodes = np.zeros((m, last + 1, last + 1))
    for q, ker in enumerate(scenario.pi_kernels):
        p_nodes[q] = ker.at_nodes(grid)[: last + 1, : last + 1]
    cj = compensated(noise)[:, :, :last]
    c_vals = control.values(grid)[:last]
    db = noise.d_brownian[:, :last]
    xk = fwd.values[:, k]
    start = k if include_diagonal else k + 1

    def run(source_col):
        source = np.zeros((last + 1, fwd.n_paths))
        source[start:, :] = source_col[start:, None] * xk[None, :]
        return _kernels.volterra_sweep(
            source, a_nodes, c_vals, b_nodes, db, p_nodes, cj, grid.dt).T

    return [run(b_nodes[:, k])] + [run(p_nodes[q][:, k]) for q in range(m)]


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
    # each direction's rows, swept on the unit source and scaled by X(t_k),
    # against the whole triangle swept on the outer-product source
    spec, noise, control, fwd = two_time_case
    want = _full_triangle_first_variation(spec, noise, control, fwd, k, include_diagonal)
    start = k if include_diagonal else k + 1
    got = []

    def consume(direction, i, row):
        assert row.shape == (fwd.n_paths,)
        np.testing.assert_allclose(row, want[direction][i], rtol=1e-12, atol=1e-14)
        got.append((direction, i))

    first_variation(spec, noise, control, fwd, k, consume, include_diagonal)
    assert got == [(d, i) for d in range(3) for i in range(start, fwd.last_node + 1)]
    assert not any(w[:start].any() for w in want)


# --------------------------------------------------------------------------- #
# exponential kernels: the lifted sweep against the blocked one
# --------------------------------------------------------------------------- #

def _exponential_problem(pairs, n_steps, n_paths, seed):
    """Blocked-sweep arguments on ``[0, 1]`` for kernels ``amplitude *
    exp(-rate (t - s))`` (alpha, beta, then one per atom), from ``at_nodes``."""
    grid = build_time_grid(1.0, n_steps)
    a, b, *p = [Kernel.exp_decay(amp, rate).at_nodes(grid) for amp, rate in pairs]
    m = len(p)
    rng = np.random.default_rng(seed)
    source = np.repeat(rng.normal(1.0, 0.2, size=(n_steps + 1, 1)), n_paths, axis=1)
    c = rng.uniform(0.0, 2.0, size=n_steps)
    db = rng.normal(scale=np.sqrt(grid.dt), size=(n_paths, n_steps))
    cj = rng.poisson(0.5 * grid.dt, size=(m, n_paths, n_steps)) - 0.5 * grid.dt
    p = np.array(p).reshape(m, n_steps + 1, n_steps + 1)
    return source, a, c, b, db, p, cj, grid.dt


def _as_pairs(args, pairs):
    """``args`` with the kernels handed over as their ``(amplitude, rate)``
    pairs instead: the drift ``(1, 2)``, beta ``(2,)``, the atoms ``(m, 2)``."""
    source, _, c, _, db, _, cj, dt = args
    drift, beta, pis = np.array(pairs[:1]), np.array(pairs[1]), np.array(pairs[2:])
    return source, drift, c, beta, db, pis.reshape(-1, 2), cj, dt


def _assert_rows_close(got, want, source, rtol=1e-13):
    # Relative to the largest magnitude in the node's row, the rows before it
    # and its source row: the terms row i sums.  First variations cross zero,
    # often on every path at one node, and a row may cancel its source, so
    # neither an elementwise nor a row-alone relative error bounds rounding.
    scale = np.maximum.accumulate(
        np.maximum(np.abs(want).max(axis=0), np.abs(source).max(axis=1)))
    err = np.abs(got - want).max(axis=0)
    assert np.all(err <= rtol * scale), (err / np.where(scale > 0, scale, 1.0)).max()


# amplitudes on a 1e-3 grid: a subnormal one has no relative precision to keep
_PAIRS = st.tuples(st.integers(-500, 500).map(lambda k: k / 1000),
                   st.sampled_from([0.0, 0.5, 1.0, 50.0]))


@settings(max_examples=30, deadline=None)
@given(
    # alpha, beta and m = 0..2 jump kernels; rates repeat, and 50 is r T = 50
    pairs=st.lists(_PAIRS, min_size=2, max_size=4),
    n_steps=st.integers(2, 60),
    n_paths=st.integers(1, 5),
    # -1 is the state; d >= 0 the first variation along column d % (1 + m)
    # of [beta, pi_0, ..., pi_{m-1}] at node ``at * (n_steps - 1)``
    direction=st.integers(-1, 2),
    at=st.floats(0.0, 1.0),
    diagonal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(pairs=[(0.05, 1.0), (0.2, 0.5), (-0.1, 0.5), (0.3, 50.0)], n_steps=200,
         n_paths=40, direction=-1, at=0.0, diagonal=True, seed=1)
@example(pairs=[(0.5, 50.0), (0.4, 0.0), (-0.3, 50.0)], n_steps=400,
         n_paths=40, direction=1, at=0.25, diagonal=True, seed=2)
@example(pairs=[(0.05, 1.0), (0.2, 0.5), (-0.1, 0.5)], n_steps=400,
         n_paths=40, direction=0, at=0.5, diagonal=False, seed=3)
@example(pairs=[(0.05, 0.0), (0.2, 0.0)], n_steps=10, n_paths=3,
         direction=0, at=1.0, diagonal=False, seed=4)  # one node
def test_lifted_sweep_matches_blocked_sweep(pairs, n_steps, n_paths, direction, at,
                                            diagonal, seed):
    source, a, c, b, db, p, cj, dt = _exponential_problem(pairs, n_steps, n_paths, seed)
    if direction >= 0:
        # the sub-triangle first_variation sweeps, with its source
        k = int(at * (n_steps - 1))
        start = k if diagonal else k + 1
        column = np.concatenate([b[None], p])[direction % (1 + p.shape[0])][start:, k]
        xk = np.random.default_rng(seed).uniform(0.5, 2.0, size=n_paths)
        source = column[:, None] * xk[None, :]
        a, b, p = a[start:, start:], b[start:, start:], p[:, start:, start:]
        c, db, cj = c[start:], db[:, start:], cj[:, :, start:]
    args = source, a, c, b, db, p, cj, dt
    lifted = _as_pairs(args, pairs)
    want = _kernels.volterra_sweep(*args)
    got = _kernels.volterra_sweep(*lifted)
    assert got.shape == want.shape
    _assert_rows_close(got, want, source)
    # the rows handed to a consumer are the returned state, bit for bit
    assert np.array_equal(_consumed_rows(args), want)
    assert np.array_equal(_consumed_rows(lifted), got)


def _consumed_rows(args):
    """The rows ``volterra_sweep`` hands to ``consume``, copied into the
    path-major shape of the state it returns without one."""
    rows = []

    def consume(i, row):
        assert i == len(rows) and row.shape == (args[0].shape[1],)
        rows.append(row.copy())

    assert _kernels.volterra_sweep(*args, consume) is None
    return np.array(rows).reshape(args[0].shape).T


def test_lifted_sweep_peak_is_its_output_plus_a_row_per_rate():
    # rates {0, 0.5, 1}: the lift keeps three running rows and one scratch
    # row, and handing its rows to a consumer, one output row instead of the
    # state; the blocked sweep holds an (n_steps, 2 + m, N) driver buffer
    pairs = [(0.05, 1.0), (0.2, 0.5), (-0.1, 0.5), (0.1, 0.0)]
    n_steps, n_paths, rates = 100, 20_000, 3
    args = _exponential_problem(pairs, n_steps, n_paths, seed=0)
    lifted = _as_pairs(args, pairs)
    _kernels.volterra_sweep(*_as_pairs(_exponential_problem(pairs, 3, 2, seed=0), pairs))
    row = n_paths * 8
    output = (n_steps + 1) * row

    def peak(args, consume=None):
        tracemalloc.start()
        try:
            _kernels.volterra_sweep(*args, consume)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lifted) <= output + (rates + 2) * row
    # and a few small objects (the row list, the generator), far below a row
    assert peak(lifted, lambda i, row: None) < (rates + 3) * row
    assert peak(args) >= output + n_steps * len(pairs) * row


def _exponential_scenario(n_steps, n_paths, seed):
    """Two-time kernels, two atoms at different rates, one of them a constant pi."""
    return validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": n_steps},
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
        "mc": {"n_paths": n_paths, "seed": seed, "n_blocks": 1},
    })


def test_sum_engine_peak_is_its_state_and_a_few_rows():
    # the lift reads the counts as drawn: no float copy of them, (m, N, n)
    # or any part of it, is formed next to the (n + 1, N) state
    spec = _exponential_scenario(100, 10_000, 5)
    noise = generate_noise(spec.grid, spec.levy, 10_000, 5, 1)
    one = ControlFn.constant(1.0, spec.grid)
    simulate_fsvie(spec, noise, one, through_node=3)  # first-call imports
    tracemalloc.start()
    try:
        simulate_fsvie(spec, noise, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (spec.grid.n_steps + 1) * noise.n_paths * 8


@pytest.mark.parametrize("k", [0, 50])
def test_first_variation_peak_is_a_few_rows_on_the_lift(k):
    # rates {0, 0.5, 0.7, 1.5}: four running rows, one scratch row, the
    # sweep's row and the scaled row handed out; it reads 7.46 rows at both
    # k.  The kernels reach the sweep as pairs, so no (n + 1)^2 node matrix
    # is formed, nor any (n + 1 - k, N) direction: the bound holds at every
    # k and every n.
    spec = _exponential_scenario(100, 20_000, 5)
    noise = generate_noise(spec.grid, spec.levy, 20_000, 5, 1)
    one = ControlFn.constant(1.0, spec.grid)
    fwd = simulate_fsvie(spec, noise, one)
    first_variation(spec, noise, one, fwd, 99, lambda d, i, row: None)  # first-call imports
    tracemalloc.start()
    try:
        first_variation(spec, noise, one, fwd, k, lambda d, i, row: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * noise.n_paths * 8


@pytest.fixture(scope="module")
def exponential_case():
    spec = _exponential_scenario(30, 16, 5)
    return spec, generate_noise(spec.grid, spec.levy, 16, 5, 1)


@pytest.mark.parametrize("table", [None, "alpha", "beta", "pi_kernels"])
def test_any_table_kernel_takes_the_blocked_path(exponential_case, table, monkeypatch):
    spec, noise = exponential_case
    n = spec.grid.n_steps

    def as_table(kernel):
        # the kernel's own values, so only the path the sweep takes changes
        return Kernel.from_table(kernel.at_nodes(spec.grid)[np.tril_indices(n + 1)], n)

    if table == "pi_kernels":
        spec = replace(spec, pi_kernels=(spec.pi_kernels[0], as_table(spec.pi_kernels[1])))
    elif table is not None:
        spec = replace(spec, **{table: as_table(getattr(spec, table))})
    one = ControlFn.constant(1.0, spec.grid)
    kernels = []

    def spy(*args, **kwargs):
        kernels.append(args[1:7:2])
        return _kernels.volterra_sweep(*args, **kwargs)

    monkeypatch.setattr(fsvie, "volterra_sweep", spy)
    fwd = simulate_fsvie(spec, noise, one)
    first_variation(spec, noise, one, fwd, 7, lambda direction, i, row: None)
    assert len(kernels) == 1 + 1 + spec.n_atoms
    for drift, beta, pis in kernels:
        if table is None:
            # the drift: alpha's pair and -w_m times each pi_m's (w = 0.5, 1)
            assert np.array_equal(drift, [(0.05, 1.5), (0.05, 0.5), (-0.25, 0.0)])
            assert np.array_equal(beta, (0.2, 0.7))
            assert np.array_equal(pis, [(-0.1, 0.5), (0.25, 0.0)])
        else:
            assert beta.ndim == 2 and pis.shape[1:] == beta.shape == drift.shape
    # either path against the plain recursion on alpha as it is and the
    # compensated counts, the compensator left out of the drift
    grid = spec.grid
    p = np.array([k.at_nodes(grid) for k in spec.pi_kernels])
    want = _direct_recursion(
        np.ones((n + 1, noise.n_paths)), spec.alpha.at_nodes(grid), one.values(grid)[:n],
        spec.beta.at_nodes(grid), noise.d_brownian, p, compensated(noise), grid.dt,
    )
    np.testing.assert_allclose(fwd.state, want, rtol=1e-12, atol=0)


def _no_node_matrix(kernel, grid):
    raise AssertionError(f"a {kernel.kind} kernel formed its node matrix")


@pytest.mark.parametrize("table", [None, "beta"])
def test_exponential_kernels_form_no_node_matrix(exponential_case, table, monkeypatch):
    # every forward caller of the sweep, with at_nodes raising: exponential
    # kernels reach the sweep as (amplitude, rate) pairs only.  With one
    # table kernel, every sweep still gets node matrices (the blocked path).
    spec, noise = exponential_case
    n = spec.grid.n_steps
    if table is None:
        monkeypatch.setattr(Kernel, "at_nodes", _no_node_matrix)
    else:
        lower = spec.beta.at_nodes(spec.grid)[np.tril_indices(n + 1)]
        spec = replace(spec, beta=Kernel.from_table(lower, n))
    beta_ndims = []

    def spy(*args, **kwargs):
        beta_ndims.append(np.ndim(args[3]))
        return _kernels.volterra_sweep(*args, **kwargs)

    monkeypatch.setattr(fsvie, "volterra_sweep", spy)
    one = ControlFn.constant(1.0, spec.grid)
    simulate_fsvie(spec, noise, one, through_node=n - 1)
    fwd = simulate_fsvie(spec, noise, one)
    for diagonal in (True, False):
        first_variation(spec, noise, one, fwd, 7, lambda d, i, row: None, diagonal)
    adj = build_adjoint_state(spec, fwd)
    assert hamiltonian_h1(n // 2, 1.0, fwd, adj, spec, noise, one)[0] != 0.0
    assert hamiltonian_h1(n, 1.0, fwd, adj, spec, noise, one) == (0.0, 0.0)
    forward_mean_oracle(spec, one)
    # two states, then one sweep per direction in each first_variation call
    assert beta_ndims == [1 if table is None else 2] * (2 + 3 * (1 + spec.n_atoms))


def test_two_time_peaks_stay_near_the_state():
    # The benchmark's two-time kernels at 1000 steps x 200 paths: with the
    # kernels as pairs, simulate_fsvie holds its (n + 1, N) state and a few
    # rows (1.02 states), and H1 at n / 2 adds 0.04 states on top.  Forming
    # the (n + 1)^2 node matrices read 35.7 and 50.7 states.
    n, n_paths = 1000, 200
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": n},
        "initial": 1.0,
        "gamma": 0.0,
        "alpha_kernel": {"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
        "beta_kernel": {"kind": "exp_decay", "amplitude": 0.2, "rate": 0.5},
        "levy": {"atoms": [[-0.1, 0.5]]},
        "pi_kernels": [{"kind": "exp_decay", "amplitude": -0.1, "rate": 0.5}],
        "filtration": {"mode": "full"},
        "mc": {"n_paths": n_paths, "seed": 1, "n_blocks": 1},
        "regression": {"degree": 2, "state": ["x"]},
    })
    noise = generate_noise(spec.grid, spec.levy, n_paths, 1, 1)
    one = ControlFn.constant(1.0, spec.grid)
    state = (n + 1) * n_paths * 8

    def peak(run):
        tracemalloc.start()
        try:
            out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate_fsvie(spec, noise, one, through_node=3)  # first-call imports
    fwd, sim_peak = peak(lambda: simulate_fsvie(spec, noise, one))
    adj = build_adjoint_state(spec, fwd)
    hamiltonian_h1(n - 1, 1.0, fwd, adj, spec, noise, one)
    _, h1_peak = peak(lambda: hamiltonian_h1(n // 2, 1.0, fwd, adj, spec, noise, one))
    assert sim_peak < 1.1 * state
    assert h1_peak < 0.1 * state
