import math
import tracemalloc

import numpy as np
import pytest
from conftest import compensated
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volterra_control import bsvie
from volterra_control.bsde import solve_bsde
from volterra_control.bsvie import (
    BsvieTriple,
    ConvergenceError,
    _column,
    _on_design,
    _replace,
    _weighted_sum,
    family_statistics,
    solve_bsvie,
    solve_family_step,
)
from volterra_control.condexp import CondExpEngine
from volterra_control.fsvie import ForwardPaths
from volterra_control.model import (
    FiltrationMode,
    LevyMeasure,
    RegressionSpec,
    ValidationError,
    build_time_grid,
)
from volterra_control.paths import generate_noise

EMPTY = LevyMeasure.from_atoms([])


def trivial_engine(noise):
    return CondExpEngine(FiltrationMode(mode="trivial"), RegressionSpec(), noise)


def brownian_engine(noise):
    return CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=2, variables=("brownian",)), noise
    )


def make_noise(n_steps=100, n_paths=256, seed=11, levy=EMPTY):
    grid = build_time_grid(1.0, n_steps)
    return generate_noise(grid, levy, n_paths=n_paths, seed=seed, n_blocks=1)


def pair_index(n_steps, i, j):
    """Flat index of the triangle pair ``(t_i, s_j)``, ``i <= j <= n-1``."""
    assert 0 <= i <= j < n_steps
    return j * (j + 1) // 2 + i


def coefficient_zeros(noise, engine):
    """The zero iterate, its triangle as wide as the widest design."""
    return BsvieTriple.zeros(noise.grid.n_steps, noise.n_paths, noise.levy.n_atoms, engine.n_basis)


def on_paths(z, k, engine):
    """A coefficient triangle evaluated on the paths: ``(n_pairs, N)`` and
    ``(n_pairs, n_atoms, N)``."""
    n = engine.grid.n_steps
    z_paths = np.empty((z.shape[0], engine.noise.n_paths))
    k_paths = np.empty((k.shape[0], k.shape[1], engine.noise.n_paths))
    for r in range(n):
        design = engine.design_at(r)
        z_paths[_column(r)] = _on_design(z, r, design) @ design.phi
        k_paths[_column(r)] = _on_design(k, r, design) @ design.phi
    return z_paths, k_paths


# --------------------------------------------------------------------------- #
# the path-valued oracle
# --------------------------------------------------------------------------- #
# The recursion, pass and weighted norm below are the solver this module had
# before the triangle held regression coefficients: every target is formed on
# the paths, projected through ``engine.project`` and stored evaluated, and
# each squared change is a path mean.

def path_zeros(n_steps, n_paths, n_atoms):
    n_pairs = n_steps * (n_steps + 1) // 2
    return BsvieTriple(
        y=np.zeros((n_steps + 1, n_paths)),
        z=np.zeros((n_pairs, n_paths)),
        k=np.zeros((n_pairs, n_atoms, n_paths)),
    )


def weighted_norm(y, z, k, grid, levy, beta_w):
    """Exponentially weighted squared norm of a path-valued triple."""
    n = grid.n_steps
    pair_sq = np.empty(n * (n + 1) // 2)
    for r in range(n):
        col = _column(r)
        pair_sq[col] = np.mean(z[col] ** 2, axis=1)
        if k.shape[1]:
            pair_sq[col] += levy.weights @ np.mean(k[col].transpose(1, 0, 2) ** 2, axis=2)
    return _weighted_sum(np.mean(y**2, axis=1), pair_sq, grid, beta_w)


def _path_replace(old, new):
    np.subtract(new, old, out=old)
    np.square(old, out=old)
    sq = old.mean(axis=-1)
    old[...] = new
    return sq


def path_family_columns(zeta, y, noise, engine, drift):
    n, dt = noise.grid.n_steps, noise.grid.dt
    n_paths, m = noise.n_paths, noise.levy.n_atoms
    zeta = np.asarray(zeta, dtype=float)
    comp = compensated(noise) if m else None
    w_dt = noise.levy.weights[:, None, None] * dt if m else None
    kinds = 2 + m  # target kinds per family: y, y dB, y (count_q - w_q dt)
    y[:] = zeta.reshape(n + 1, -1)
    for r in range(n - 1, -1, -1):
        fam = r + 1
        y_run = y[:fam]
        # node-major block: rows [kind * fam + i] hold family i's target
        block = np.empty((kinds * fam, n_paths))
        block[:fam] = y_run
        np.multiply(y_run, np.ascontiguousarray(noise.d_brownian[:, r]), out=block[fam:2 * fam])
        for q in range(m):
            np.multiply(y_run, np.ascontiguousarray(comp[q, :, r]),
                        out=block[(2 + q) * fam:(3 + q) * fam])
        proj = engine.project(r, block.T).T
        if drift is None:
            y_run[:] = proj[:fam]
        else:
            np.add(proj[:fam], np.asarray(drift(r), dtype=float) * dt, out=y_run)
        z_new = proj[fam:2 * fam]
        z_new /= dt
        k_new = proj[2 * fam:].reshape(m, fam, n_paths)
        if m:
            k_new /= w_dt
        yield r, z_new, k_new


def path_family_step(zeta, driver, frozen, noise, engine):
    """One in-place pass on a path-valued triple; returns ``(y_sq, pair_sq)``."""
    n = noise.grid.n_steps
    m = noise.levy.n_atoms
    families = np.arange(n)[:, None]
    y_frozen = frozen.y.copy()
    drift = None
    if driver is not None:
        def drift(r):
            col = _column(r)
            k_col = frozen.k[col].transpose(1, 0, 2) if m else None
            x_r = engine.x_paths.row(r) if engine.x_paths is not None else None
            return driver(families[:r + 1], r, y_frozen[r], frozen.z[col], k_col, x_r)

    y = frozen.y
    y_sq = np.empty(n + 1)
    pair_sq = np.empty(n * (n + 1) // 2)
    for r, z_new, k_new in path_family_columns(zeta, y, noise, engine, drift):
        col = _column(r)
        pair_sq[col] = _path_replace(frozen.z[col], z_new)
        if m:
            pair_sq[col] += noise.levy.weights @ _path_replace(
                frozen.k[col].transpose(1, 0, 2), k_new)
        y_sq[r] = np.mean((y[r] - y_frozen[r]) ** 2)
    y_sq[n] = np.mean((y[n] - y_frozen[n]) ** 2)
    return y_sq, pair_sq


def path_solve_bsvie(zeta, driver, noise, engine, beta_w=20.0, tol=1e-6, max_iter=50):
    """The fixed-point loop on a path-valued triangle; returns it and the log."""
    grid = noise.grid
    current = path_zeros(grid.n_steps, noise.n_paths, noise.levy.n_atoms)
    log, scale = [], None
    for _ in range(max_iter):
        squares = path_family_step(zeta, driver, current, noise, engine)
        log.append(_weighted_sum(*squares, grid, beta_w))
        if driver is None:
            log.append(0.0)
            break
        if scale is None:
            scale = max(weighted_norm(current.y, current.z, current.k, grid, noise.levy, beta_w),
                        1e-300)
        if log[-1] <= tol * scale:
            break
    return current, log


# --------------------------------------------------------------------------- #
# weighted norm
# --------------------------------------------------------------------------- #

def test_weighted_norm_of_constant_value():
    grid = build_time_grid(1.0, 100)
    # E[Y^2] = 1 at every node, no coefficient terms
    assert math.isclose(_weighted_sum(np.ones(101), np.zeros(5050), grid, 0.0), 1.0,
                        rel_tol=1e-12)


def test_weighted_norm_exponential_weight():
    grid = build_time_grid(1.0, 100)
    val = _weighted_sum(np.ones(101), np.zeros(5050), grid, 2.0)
    assert abs(val - (math.e**2 - 1.0) / 2.0) < 1e-3


def test_weighted_norm_zero_triple():
    grid = build_time_grid(1.0, 10)
    assert _weighted_sum(np.zeros(11), np.zeros(55), grid, 5.0) == 0.0


def test_pair_index_layout():
    n = 5
    seen = set()
    for j in range(n):
        # running-time-major: the column (0..j, j) is one contiguous block
        col = _column(j)
        assert col.stop - col.start == j + 1
        for i in range(j + 1):
            assert col.start + i == pair_index(n, i, j)
            seen.add(col.start + i)
    assert seen == set(range(n * (n + 1) // 2))


# --------------------------------------------------------------------------- #
# family step
# --------------------------------------------------------------------------- #

def test_family_step_deterministic_terminal():
    noise = make_noise(n_steps=20)
    n = 20
    zeta = np.broadcast_to(noise.grid.nodes[:, None], (21, noise.n_paths)).copy()
    engine = trivial_engine(noise)
    out = coefficient_zeros(noise, engine)
    assert out.z.shape == (n * (n + 1) // 2, 1)  # trivial mode: the intercept alone
    solve_family_step(zeta, None, out, noise, engine)
    # deterministic terminal: the diagonal reproduces it exactly and the
    # coefficient rows are pure sample noise around zero
    assert np.allclose(out.y, zeta, atol=1e-14)
    se = 1.0 / math.sqrt(noise.n_paths * noise.grid.dt)
    assert np.max(np.abs(out.z)) < 5 * se


def test_family_step_ignores_frozen_when_driver_is_zero_function():
    noise = make_noise(n_steps=15)
    n = 15
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :]
    a = coefficient_zeros(noise, brownian_engine(noise))
    b = coefficient_zeros(noise, brownian_engine(noise))
    assert a.z.shape == (n * (n + 1) // 2, 3)

    def driver(i, r, y_frozen, z, k, x):
        return y_frozen  # frozen y stays identically zero

    solve_family_step(zeta, driver, a, noise, brownian_engine(noise))
    solve_family_step(zeta, None, b, noise, brownian_engine(noise))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z)


def test_family_step_martingale_terminal_tracks_brownian():
    noise = make_noise(n_steps=50, n_paths=20_000, seed=5)
    n = 50
    b_levels = noise.brownian_levels
    zeta = noise.grid.nodes[:, None] * b_levels[:, -1][None, :]
    engine = brownian_engine(noise)
    out = coefficient_zeros(noise, engine)
    solve_family_step(zeta, None, out, noise, engine)
    # diagonal close to t_i * B(t_i) pathwise (iterated-regression error)
    gaps = out.y - noise.grid.nodes[:, None] * b_levels.T
    rms = math.sqrt(float(np.mean(gaps**2)))
    assert rms < 0.05
    corr = np.corrcoef(out.y[25], b_levels[:, 25])[0, 1]
    assert corr > 0.99


# --------------------------------------------------------------------------- #
# fixed-point solve
# --------------------------------------------------------------------------- #

def test_zero_generator_converges_in_one_pass():
    noise = make_noise(n_steps=30, n_paths=2000, seed=3)
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :]
    sol = solve_bsvie(zeta, None, noise, brownian_engine(noise), tol=1e-9)
    assert len(sol.iteration_log) == 2
    assert sol.iteration_log[1] <= 1e-12


def test_resolvent_value_and_discrete_identity():
    n = 100
    noise = make_noise(n_steps=n, n_paths=128, seed=11)
    zeta = np.ones((n + 1, noise.n_paths))

    def driver(i, r, y_frozen, z, k, x):
        return y_frozen

    sol = solve_bsvie(zeta, driver, noise, trivial_engine(noise),
                      beta_w=20.0, tol=1e-21, max_iter=40)
    y0 = float(sol.y[0].mean())
    # the weighted stopping rule leaves an O(1e-8) tail at t = 0, where the
    # exponential weight is smallest
    assert abs(y0 - (1.0 - noise.grid.dt) ** (-n)) < 1e-7
    assert abs(y0 - math.e) < 0.01 * math.e


def _hand_weighted_sum(y_sq, pair_sq, grid, beta_w):
    """``_weighted_sum`` with its trapezoid weights in ``t`` built by hand."""
    n, dt = grid.n_steps, grid.dt
    w_t = np.full(n + 1, dt)
    w_t[0] = w_t[-1] = 0.5 * dt
    e_t = np.exp(beta_w * grid.nodes)
    firsts = np.arange(n) * (np.arange(n) + 1) // 2
    total = 0.0
    for i in range(n + 1):
        inner = y_sq[i] * e_t[i]
        if i < n:
            inner += float(e_t[i:n] @ pair_sq[firsts[i:] + i]) * dt
        total += w_t[i] * inner
    return total


def test_contraction_log_is_the_hand_built_trapezoid(monkeypatch):
    # the C6 fixed point at a smaller size: its distance log is the same
    # bits when the norm builds its weights by hand
    noise = make_noise(n_steps=20, n_paths=512, seed=77)
    zeta = noise.grid.nodes[:, None] * noise.d_brownian.sum(axis=1)[None, :]

    def driver(i, r, y_frozen, z, k, x):
        return np.sin(y_frozen)

    def log():
        sol = solve_bsvie(zeta, driver, noise, brownian_engine(noise), beta_w=20.0,
                          tol=1e-13, max_iter=60)
        return np.array(sol.iteration_log)

    shared = log()
    monkeypatch.setattr(bsvie, "_weighted_sum", _hand_weighted_sum)
    np.testing.assert_array_equal(shared, log())


def test_diagonal_consistency_at_the_fixed_point():
    n = 40
    noise = make_noise(n_steps=n, n_paths=64, seed=13)
    zeta = np.ones((n + 1, noise.n_paths))

    def driver(i, r, y_frozen, z, k, x):
        return np.sin(y_frozen)

    engine = trivial_engine(noise)
    sol = solve_bsvie(zeta, driver, noise, engine, beta_w=20.0, tol=1e-21, max_iter=60)
    re_solved = BsvieTriple(y=sol.y.copy(), z=sol.z.copy(), k=sol.k.copy())
    solve_family_step(zeta, driver, re_solved, noise, engine)
    assert np.max(np.abs(re_solved.y - sol.y)) < 1e-10


def test_uniqueness_from_different_starting_triple():
    n = 30
    noise = make_noise(n_steps=n, n_paths=512, seed=17)
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :]

    def driver(i, r, y_frozen, z, k, x):
        return np.sin(y_frozen)

    engine = brownian_engine(noise)
    tol = 1e-10
    a = solve_bsvie(zeta, driver, noise, engine, tol=tol, max_iter=60)
    # the same fixed-point loop from a warm triple, stopped by the same rule
    # relative to its own first iterate
    b = coefficient_zeros(noise, engine)
    b.y += 1.0
    scale_b = None
    for _ in range(60):
        squares = solve_family_step(zeta, driver, b, noise, engine)
        if scale_b is None:
            scale_b = weighted_norm(b.y, *on_paths(b.z, b.k, engine), noise.grid, EMPTY, 20.0)
        if _weighted_sum(*squares, noise.grid, 20.0) <= tol * scale_b:
            break
    else:
        pytest.fail("no convergence from the warm triple")
    (a_z, a_k), (b_z, b_k) = on_paths(a.z, a.k, engine), on_paths(b.z, b.k, engine)
    diff = weighted_norm(a.y - b.y, a_z - b_z, a_k - b_k, noise.grid, EMPTY, 20.0)
    scale = weighted_norm(a.y, a_z, a_k, noise.grid, EMPTY, 20.0)
    assert diff <= 2 * tol * scale


def test_contraction_ratios_with_lipschitz_driver():
    noise = make_noise(n_steps=40, n_paths=2048, seed=19)
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :]

    def driver(i, r, y_frozen, z, k, x):
        return np.sin(y_frozen)

    sol = solve_bsvie(zeta, driver, noise, brownian_engine(noise),
                      beta_w=20.0, tol=1e-13, max_iter=60)
    log = list(sol.iteration_log)
    floor = 1e-10 * log[1]
    for a, b in zip(log[1:], log[2:]):
        if a <= floor:
            break
        assert b < a
        assert b / a <= 0.9


def test_non_convergence_raises_with_log():
    noise = make_noise(n_steps=20, n_paths=128, seed=23)
    zeta = np.ones((21, noise.n_paths))

    def driver(i, r, y_frozen, z, k, x):
        return y_frozen

    with pytest.raises(ConvergenceError) as err:
        solve_bsvie(zeta, driver, noise, trivial_engine(noise), tol=1e-16, max_iter=2)
    assert len(err.value.log) == 2


@pytest.mark.parametrize("max_iter", [0, -1])
def test_max_iter_below_one_is_rejected(max_iter):
    noise = make_noise(n_steps=5, n_paths=16, seed=23)
    zeta = np.ones((6, noise.n_paths))
    with pytest.raises(ValidationError, match="max_iter"):
        solve_bsvie(zeta, None, noise, trivial_engine(noise), max_iter=max_iter)


# --------------------------------------------------------------------------- #
# the streamed driver-free family against the stored triangle
# --------------------------------------------------------------------------- #
# The oracle is the path-valued family solve, which stores its triangle on
# the paths: one pass without a generator, then the statistics read off the
# triangle pair by pair.

def _triangle_family(zeta, noise, engine):
    return path_solve_bsvie(zeta, None, noise, engine)[0]


def _triangle_z_derivative_norm(tri, grid):
    """First-index derivative norm of Z, summed over the stored triangle."""
    n, dt = grid.n_steps, grid.dt
    total = 0.0
    for j in range(1, n):
        fd = np.diff(tri.z[_column(j)], axis=0) / dt
        total += float(np.mean(fd**2, axis=1).sum()) * dt * dt
    return total


def _triangle_statistics(tri, grid):
    n = grid.n_steps
    z_mean = np.array([tri.z[pair_index(n, i, j)].mean() for j in range(n) for i in range(j + 1)])
    zero_row = max(float(np.max(np.abs(tri.z[pair_index(n, 0, j)]))) for j in range(n))
    return z_mean, zero_row, _triangle_z_derivative_norm(tri, grid)


def test_z_derivative_norm_zero_for_flat_coefficients():
    noise = make_noise(n_steps=20)
    zeta = np.ones((21, noise.n_paths))
    assert family_statistics(zeta, noise, trivial_engine(noise)).z_derivative_norm < 1e-3


def test_z_derivative_norm_for_linear_family():
    noise = make_noise(n_steps=50, n_paths=20_000, seed=29)
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :]
    val = family_statistics(zeta.copy(), noise, brownian_engine(noise)).z_derivative_norm
    assert abs(val - 0.5) < 0.1
    tri = _triangle_family(zeta, noise, brownian_engine(noise))
    assert math.isclose(val, _triangle_z_derivative_norm(tri, noise.grid), rel_tol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    n_steps=st.integers(2, 30),
    n_paths=st.integers(2, 400),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["full", "trivial", "delay", "ridge"]),
    n_atoms=st.integers(0, 1),
    zero_first_row=st.booleans(),
    deterministic=st.booleans(),
)
def test_streamed_family_statistics_equal_the_triangle(n_steps, n_paths, seed, mode, n_atoms,
                                                       zero_first_row, deterministic):
    if mode == "ridge":
        n_paths = max(n_paths, 8)  # fewer paths than basis rows take the pseudo-inverse
    levy = LevyMeasure.from_atoms([[-0.1, 2.0]] * n_atoms)
    noise = make_noise(n_steps=n_steps, n_paths=n_paths, seed=seed, levy=levy)
    variables, x_paths = ("brownian",), None
    if mode == "ridge":
        # a state row that repeats the Brownian level: the Gram matrix is
        # singular, so every design past node 0 is ridge-rescued
        variables = ("brownian", "x")
        x_paths = ForwardPaths(grid=noise.grid, state=noise.brownian_levels.copy(),
                               log_state=False)
    engine = CondExpEngine(
        FiltrationMode(mode="full" if mode == "ridge" else mode, delay=0.25),
        RegressionSpec(degree=2, variables=variables), noise, x_paths=x_paths,
        cache_designs=False,
    )
    assert engine.design_at(n_steps - 1).ridged == (mode == "ridge")
    weights = np.random.default_rng(seed).normal(size=n_steps + 1)
    weights[0] = 0.0 if zero_first_row else weights[0]
    if deterministic:
        # an (n+1, 1) family: one value per node, no path dimension
        zeta = np.sin(weights)[:, None]
    else:
        zeta = weights[:, None] * noise.d_brownian.sum(axis=1)[None, :] + np.sin(weights)[:, None]
        if n_atoms:
            zeta += weights[:, None] * noise.count_levels[0][:, -1]
    if zero_first_row:
        zeta[0] = 0.0
    stats = family_statistics(zeta, noise, engine)
    z_mean, zero_row, norm = _triangle_statistics(_triangle_family(zeta, noise, engine), noise.grid)
    assert stats.grid is noise.grid and stats.n_paths == n_paths
    # the coefficients reorder the regression's sums: equal to rounding
    np.testing.assert_allclose(stats.z_mean, z_mean, rtol=1e-10, atol=1e-12)
    assert math.isclose(stats.zero_row_max, zero_row, rel_tol=1e-10, abs_tol=1e-12)
    assert math.isclose(stats.z_derivative_norm, norm, rel_tol=1e-10, abs_tol=1e-12)
    if zero_first_row:
        assert stats.zero_row_max == zero_row == 0.0


def test_family_statistics_leave_every_terminal_layout_as_it_was():
    # the terminal is read-only input: no layout is written to, and every
    # layout gives the same statistics, bit for bit
    noise = make_noise(n_steps=12, n_paths=300, seed=31)
    engine = brownian_engine(noise)
    zeta = noise.grid.nodes[:, None] * noise.d_brownian.sum(axis=1)[None, :]
    copies = {"writable": zeta.copy(), "read-only": zeta.copy(),
              "column-major": np.asfortranarray(zeta),
              "strided": np.repeat(zeta, 2, axis=1)[:, ::2]}
    copies["read-only"].flags.writeable = False
    stats = family_statistics(zeta.copy(), noise, engine)
    for name, terminal in copies.items():
        before = terminal.copy()
        got = family_statistics(terminal, noise, engine)
        assert np.array_equal(terminal, before), name  # read, left as it was
        assert np.array_equal(got.z_mean, stats.z_mean), name
        assert got.zero_row_max == stats.zero_row_max, name
        assert got.z_derivative_norm == stats.z_derivative_norm, name


def test_a_nan_in_row_zero_reaches_its_maximum():
    noise = make_noise(n_steps=6, n_paths=50)
    zeta = np.zeros((7, 50))
    zeta[0, 3] = np.nan
    assert math.isnan(family_statistics(zeta, noise, trivial_engine(noise)).zero_row_max)


def _peak_bytes(solve, n_steps, n_paths, traced_terminal=True):
    noise = make_noise(n_steps=n_steps, n_paths=n_paths, seed=37)
    engine = CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=2, variables=("brownian",)), noise,
        cache_designs=False,
    )
    terminal = noise.grid.nodes[:, None] * noise.d_brownian.sum(axis=1)[None, :]
    terminal.flags.writeable = False  # passed untraced, a solve that wrote it would raise
    noise.brownian_levels  # the regression state belongs to the bundle, not to the solve
    tracemalloc.start()
    try:
        # a traced terminal is copied inside the trace, so its (n+1, N)
        # values count as a caller's freshly built terminal does
        solve(terminal.copy() if traced_terminal else terminal, noise, engine)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_family_memory_is_linear_in_steps_and_paths():
    base = _peak_bytes(family_statistics, 40, 1000)
    more_steps = _peak_bytes(family_statistics, 80, 1000)
    more_paths = _peak_bytes(family_statistics, 40, 2000)
    assert 1.6 < more_steps / base < 2.4
    assert 1.6 < more_paths / base < 2.4
    # the stored triangle grows as n^2 N: the same doubling of the grid
    # nearly quadruples it, and at 80 steps it alone outweighs the stream
    tri_base = _peak_bytes(_triangle_family, 40, 1000)
    tri_more_steps = _peak_bytes(_triangle_family, 80, 1000)
    assert tri_more_steps / tri_base > 3.0
    assert more_steps < 80 * 81 // 2 * 1000 * 8


def test_family_memory_above_a_read_only_terminal_is_flat_in_steps():
    # the terminal is read in place at the first step and never copied, and
    # the families live as coefficients: above the input, the peak is two
    # nodes' designs, whatever the number of steps
    base = _peak_bytes(family_statistics, 40, 4000, traced_terminal=False)
    more_steps = _peak_bytes(family_statistics, 80, 4000, traced_terminal=False)
    assert more_steps < 1.2 * base


# --------------------------------------------------------------------------- #
# batched rewrites against the plain loops they replace
# --------------------------------------------------------------------------- #

def _family_step_reference(zeta, driver, frozen, noise, engine):
    """Family by family, one projection call per target column."""
    n, dt = noise.grid.n_steps, noise.grid.dt
    m = noise.levy.n_atoms
    out = path_zeros(n, noise.n_paths, m)
    comp = compensated(noise)
    out.y[n] = zeta[n]
    for i in range(n):
        y_run = zeta[i].copy()
        for r in range(n - 1, i - 1, -1):
            idx = pair_index(n, i, r)
            y_proj = engine.project(r, y_run)
            out.z[idx] = engine.project(r, y_run * noise.d_brownian[:, r]) / dt
            for q in range(m):
                out.k[idx, q] = engine.project(r, y_run * comp[q, :, r]) / (noise.levy.weights[q] * dt)
            g = driver(i, r, frozen.y[r], frozen.z[idx], frozen.k[idx], None)
            y_run = y_proj + g * dt
        out.y[i] = y_run
    return out


def _jump_driver(i, r, y, z, k, x):
    return np.sin(y) + 0.2 * z + 0.2 * k[0] + 0.01 * (i - r)


@settings(max_examples=15, deadline=None)
@given(
    n_steps=st.integers(2, 8),
    n_paths=st.integers(50, 300),
    seed=st.integers(0, 2**16),
    weight=st.floats(0.5, 4.0),
    mode=st.sampled_from(["full", "trivial"]),
)
def test_batched_family_step_matches_per_family_loop(n_steps, n_paths, seed, weight, mode):
    levy = LevyMeasure.from_atoms([[-0.1, weight]])
    noise = make_noise(n_steps=n_steps, n_paths=n_paths, seed=seed, levy=levy)
    engine = CondExpEngine(
        FiltrationMode(mode=mode), RegressionSpec(degree=2, variables=("brownian", "jump_counts")),
        noise,
    )
    rng = np.random.default_rng(seed)
    got = coefficient_zeros(noise, engine)
    for a in (got.y, got.z, got.k):
        a[...] = rng.normal(size=a.shape)
    # the reference reads the frozen triple on the paths
    frozen = BsvieTriple(got.y.copy(), *on_paths(got.z, got.k, engine))
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :] + 0.1 * noise.count_levels[0][:, -1]
    solve_family_step(zeta, _jump_driver, got, noise, engine)
    ref = _family_step_reference(zeta, _jump_driver, frozen, noise, engine)
    for a, b in ((got.y, ref.y), *zip(on_paths(got.z, got.k, engine), (ref.z, ref.k))):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def _weighted_norm_reference(a, b, grid, levy, beta_w):
    """Pair-by-pair weighted norm of the difference of two triples."""
    n, dt = grid.n_steps, grid.dt
    w_t = np.full(n + 1, dt)
    w_t[0] = w_t[-1] = 0.5 * dt
    e_t = np.exp(beta_w * grid.nodes)
    total = 0.0
    for i in range(n + 1):
        inner = float(np.mean((a.y[i] - b.y[i]) ** 2)) * e_t[i]
        for j in range(i, n):
            idx = pair_index(n, i, j)
            zsq = float(np.mean((a.z[idx] - b.z[idx]) ** 2))
            ksq = float(np.dot(levy.weights, np.mean((a.k[idx] - b.k[idx]) ** 2, axis=1)))
            inner += e_t[j] * (zsq + ksq) * dt
        total += w_t[i] * inner
    return total


def _gram_distance(a, b, engine, beta_w):
    """The weighted distance of two coefficient triples, formed as a pass
    forms it: ``_replace`` per column, then ``_weighted_sum``."""
    grid, levy = engine.grid, engine.noise.levy
    n = grid.n_steps
    old = BsvieTriple(a.y, a.z.copy(), a.k.copy())
    pair_sq = np.empty(n * (n + 1) // 2)
    for r in range(n):
        design = engine.design_at(r)
        col = _column(r)
        pair_sq[col] = _replace(_on_design(old.z, r, design), _on_design(b.z, r, design), design)
        if levy.n_atoms:
            pair_sq[col] += levy.weights @ _replace(
                _on_design(old.k, r, design).transpose(1, 0, 2),
                _on_design(b.k, r, design).transpose(1, 0, 2), design)
    return _weighted_sum(np.mean((a.y - b.y) ** 2, axis=1), pair_sq, grid, beta_w)


@settings(max_examples=25, deadline=None)
@given(
    n_steps=st.integers(2, 12),
    n_paths=st.integers(2, 40),
    n_atoms=st.integers(0, 2),
    beta_w=st.floats(0.0, 20.0),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["full", "trivial"]),
)
def test_weighted_norm_matches_pairwise_loop(n_steps, n_paths, n_atoms, beta_w, seed, mode):
    levy = LevyMeasure.from_atoms([[0.1 * (q + 1), 1.0 + q] for q in range(n_atoms)])
    noise = make_noise(n_steps=n_steps, n_paths=n_paths, seed=seed, levy=levy)
    engine = CondExpEngine(
        FiltrationMode(mode=mode), RegressionSpec(degree=2, variables=("brownian", "jump_counts")),
        noise,
    )
    rng = np.random.default_rng(seed)

    def triple():
        out = coefficient_zeros(noise, engine)
        for a in (out.y, out.z, out.k):
            a[...] = rng.normal(size=a.shape)
        return out

    def paths(t):
        return BsvieTriple(t.y, *on_paths(t.z, t.k, engine))

    a, b = triple(), triple()
    zero = coefficient_zeros(noise, engine)
    expected = _weighted_norm_reference(paths(a), paths(b), noise.grid, levy, beta_w)
    assert math.isclose(_gram_distance(a, b, engine, beta_w), expected, rel_tol=1e-12)
    plain = _weighted_norm_reference(paths(a), paths(zero), noise.grid, levy, beta_w)
    assert math.isclose(_gram_distance(zero, a, engine, beta_w), plain, rel_tol=1e-12)


# --------------------------------------------------------------------------- #
# the in-place running-time-major solver against the two-triangle one
# --------------------------------------------------------------------------- #
# The reference below is the solver this module had before the triangle was
# stored running-time-major: first-index-major storage, one driver call per
# pair, a fresh triangle per pass and the distance formed afterwards.

def _ref_index(n, i, j):
    return i * n - (i * (i - 1)) // 2 + (j - i)


def _ref_weighted_norm(y, z, k, grid, levy, beta_w, base=None):
    n, dt = grid.n_steps, grid.dt
    w_t = np.full(n + 1, dt)
    w_t[0] = w_t[-1] = 0.5 * dt
    e_t = np.exp(beta_w * grid.nodes)
    total = 0.0
    for i in range(n + 1):
        y_i = y[i] if base is None else y[i] - base.y[i]
        inner = float(np.mean(y_i**2)) * e_t[i]
        if i < n:
            row = slice(_ref_index(n, i, i), _ref_index(n, i, n - 1) + 1)
            z_i = z[row] if base is None else z[row] - base.z[row]
            sq = np.mean(z_i**2, axis=1)
            if k.shape[1]:
                k_i = k[row] if base is None else k[row] - base.k[row]
                sq += np.mean(k_i**2, axis=2) @ levy.weights
            inner += float(e_t[i:n] @ sq) * dt
        total += w_t[i] * inner
    return total


def _ref_family_step(zeta, driver, frozen, noise, engine):
    n, dt = noise.grid.n_steps, noise.grid.dt
    n_paths, m = noise.n_paths, noise.levy.n_atoms
    out = path_zeros(n, n_paths, m)
    comp = compensated(noise)
    w_dt = noise.levy.weights * dt
    kinds = 2 + m
    out.y[:] = zeta
    for r in range(n - 1, -1, -1):
        fam = r + 1
        y_run = out.y[:fam]
        block = np.empty((kinds * fam, n_paths))
        block[:fam] = y_run
        np.multiply(y_run, noise.d_brownian[:, r], out=block[fam:2 * fam])
        for q in range(m):
            np.multiply(y_run, comp[q, :, r], out=block[(2 + q) * fam:(3 + q) * fam])
        proj = engine.project(r, block.T).T
        rows = [_ref_index(n, i, r) for i in range(fam)]
        out.z[rows] = proj[fam:2 * fam] / dt
        for q in range(m):
            out.k[rows, q] = proj[(2 + q) * fam:(3 + q) * fam] / w_dt[q]
        if driver is None:
            y_run[:] = proj[:fam]
            continue
        for i, idx in enumerate(rows):
            g = driver(i, r, frozen.y[r], frozen.z[idx], frozen.k[idx] if m else None, None)
            y_run[i] = proj[i] + np.asarray(g, dtype=float) * dt
    return out


def _ref_solve_bsvie(zeta, driver, noise, engine, beta_w, tol, max_iter):
    grid, levy = noise.grid, noise.levy
    current = path_zeros(grid.n_steps, noise.n_paths, levy.n_atoms)
    log, scale = [], None
    for _ in range(max_iter):
        new = _ref_family_step(zeta, driver, current, noise, engine)
        log.append(_ref_weighted_norm(new.y, new.z, new.k, grid, levy, beta_w, base=current))
        if scale is None:
            scale = max(_ref_weighted_norm(new.y, new.z, new.k, grid, levy, beta_w), 1e-300)
        current = new
        if log[-1] <= tol * scale:
            break
    return current, log


@settings(max_examples=15, deadline=None)
@given(
    n_steps=st.integers(2, 8),
    n_paths=st.integers(50, 300),
    seed=st.integers(0, 2**16),
    weight=st.floats(0.5, 4.0),
    mode=st.sampled_from(["full", "trivial"]),
    with_driver=st.booleans(),
)
def test_in_place_solver_matches_two_triangle_reference(
    n_steps, n_paths, seed, weight, mode, with_driver
):
    levy = LevyMeasure.from_atoms([[-0.1, weight]])
    noise = make_noise(n_steps=n_steps, n_paths=n_paths, seed=seed, levy=levy)
    engine = CondExpEngine(
        FiltrationMode(mode=mode), RegressionSpec(degree=2, variables=("brownian", "jump_counts")),
        noise,
    )
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :] + 0.1 * noise.count_levels[0][:, -1]
    driver = _jump_driver if with_driver else None
    sol = solve_bsvie(zeta, driver, noise, engine, beta_w=5.0, tol=1e-10, max_iter=40)
    ref, log = _ref_solve_bsvie(zeta, driver, noise, engine, 5.0, 1e-10, 40)
    if driver is None:
        # the reference runs the second pass that repeats the first
        assert log[1] == 0.0
    assert len(sol.iteration_log) == len(log)
    # distance k is the square of the change between two iterates that each
    # carry rounding of a few eps times their size, so it carries rounding of
    # a few eps * sqrt(log[k] * log[0]) (at most 3.2 eps in 600 random cases):
    # allow 1e-14 (45 eps) of that on top of 1e-10 relative
    got, want = np.array(sol.iteration_log), np.array(log)
    bound = 1e-10 * want + 1e-14 * np.sqrt(want * want[0])
    assert np.all(np.abs(got - want) <= bound), (got, want)
    scale = np.abs(ref.z).max() + np.abs(ref.k).max()
    np.testing.assert_allclose(sol.y, ref.y, rtol=1e-12, atol=1e-12 * np.abs(ref.y).max())
    z, k = on_paths(sol.z, sol.k, engine)
    for i in range(n_steps):
        for j in range(i, n_steps):
            idx = _ref_index(n_steps, i, j)
            got = pair_index(n_steps, i, j)
            np.testing.assert_allclose(z[got], ref.z[idx], rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(k[got], ref.k[idx], rtol=1e-12, atol=1e-12 * scale)


# --------------------------------------------------------------------------- #
# the coefficient triangle against the path-valued oracle
# --------------------------------------------------------------------------- #

def _reading_driver(i, r, y, z, k, x):
    """A generator that reads the frozen ``Z`` and ``K`` columns, not only ``y``."""
    out = np.sin(y) + 0.2 * z + 0.01 * (i - r)
    return out if k is None else out + 0.2 * k.sum(axis=0)


def _assert_passes_match_oracle(zeta, driver, noise, engine, passes=3):
    """``passes`` in-place passes from the zero triple, against the oracle's."""
    got = coefficient_zeros(noise, engine)
    ref = path_zeros(noise.grid.n_steps, noise.n_paths, noise.levy.n_atoms)
    for _ in range(passes):
        squares = solve_family_step(zeta, driver, got, noise, engine)
        ref_squares = path_family_step(zeta, driver, ref, noise, engine)
        z, k = on_paths(got.z, got.k, engine)
        for a, b in ((got.y, ref.y), (z, ref.z), (k, ref.k), *zip(squares, ref_squares)):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n_steps=st.integers(2, 20),
    n_paths=st.integers(2, 400),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["full", "trivial", "delay"]),
    n_atoms=st.integers(0, 2),
    with_driver=st.booleans(),
)
# fewer paths than basis functions: a squared change read off the formed Gram
# matrix, which squares the basis' condition number, misses 1e-10 here
@example(n_steps=8, n_paths=8, seed=33233, mode="full", n_atoms=2, with_driver=True)
def test_coefficient_recursion_matches_path_valued_oracle(
    n_steps, n_paths, seed, mode, n_atoms, with_driver
):
    levy = LevyMeasure.from_atoms([[-0.1 * (q + 1), 1.0 + q] for q in range(n_atoms)])
    noise = make_noise(n_steps=n_steps, n_paths=n_paths, seed=seed, levy=levy)
    delay = (1 + seed % 3) * noise.grid.dt if mode == "delay" else 0.0
    engine = CondExpEngine(
        FiltrationMode(mode=mode, delay=delay),
        RegressionSpec(degree=2, variables=("brownian", "jump_counts")), noise,
    )
    zeta = (noise.grid.nodes[:, None] * noise.d_brownian.sum(axis=1)[None, :]
            + np.sin(noise.grid.nodes)[:, None])
    if n_atoms:
        zeta = zeta + 0.1 * noise.count_levels[0][:, -1]
    _assert_passes_match_oracle(zeta, _reading_driver if with_driver else None, noise, engine)


def test_kept_solver_design_matches_path_valued_oracle():
    # a state row that repeats the Brownian level: the Gram matrix is
    # singular, so every design past node 0 keeps its ridge solver and the
    # product runs on the solver instead of the basis
    levy = LevyMeasure.from_atoms([[-0.1, 2.0]])
    noise = make_noise(n_steps=8, n_paths=300, seed=41, levy=levy)
    engine = CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=2, variables=("brownian", "x")), noise,
        x_paths=ForwardPaths(grid=noise.grid, state=noise.brownian_levels.copy(),
                             log_state=False),
    )
    assert all(engine.design_at(r).solver is not None for r in range(1, 8))
    zeta = noise.grid.nodes[:, None] * noise.d_brownian.sum(axis=1)[None, :]
    _assert_passes_match_oracle(zeta, _reading_driver, noise, engine)


@pytest.mark.parametrize("with_state", [True, False])
def test_drivers_read_the_engine_state_at_their_node(with_state):
    # both backward solvers hand their driver the engine's state row, the
    # exp of one row of a log state, and None when the engine holds no state
    noise = make_noise(n_steps=6, n_paths=50, seed=3)
    fwd = ForwardPaths(grid=noise.grid, state=noise.brownian_levels.copy(),
                       log_state=True)
    engine = CondExpEngine(FiltrationMode(mode="full"),
                           RegressionSpec(degree=1, variables=("x", "brownian")), noise,
                           x_paths=fwd if with_state else None)
    seen = {}

    def bsde_driver(i, t, x, y, z, k):
        seen["bsde", i] = x
        return 0.0 * y

    def bsvie_driver(i, r, y, z, k, x):
        seen["bsvie", r] = x
        return 0.0 * y

    solve_bsde(noise.brownian_levels[:, -1], bsde_driver, noise, engine)
    solve_bsvie(noise.grid.nodes[:, None] * noise.brownian_levels[:, -1], bsvie_driver,
                noise, engine, max_iter=3)
    assert sorted(seen) == [(solver, r) for solver in ("bsde", "bsvie") for r in range(6)]
    for (_, r), x in seen.items():
        if with_state:
            assert np.array_equal(x, np.exp(noise.brownian_levels[:, r]))
        else:
            assert x is None


def test_solve_bsvie_memory_grows_with_the_diagonal_not_the_triangle():
    levy = LevyMeasure.from_atoms([[-0.1, 2.0]])

    def peak(solve, n_steps):
        noise = make_noise(n_steps=n_steps, n_paths=1000, seed=43, levy=levy)
        engine = CondExpEngine(
            FiltrationMode(mode="full"),
            RegressionSpec(degree=2, variables=("brownian", "jump_counts")), noise,
        )
        zeta = noise.grid.nodes[:, None] * noise.d_brownian.sum(axis=1)[None, :]
        # the regression state belongs to the bundle
        noise.brownian_levels, noise.count_levels
        tracemalloc.start()
        try:
            solve(zeta, _reading_driver, noise, engine, tol=1e-6, max_iter=20)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ratio = peak(solve_bsvie, 80) / peak(solve_bsvie, 40)
    assert 1.6 < ratio < 2.4
    # the path-valued triangle grows as n^2 N: the same doubling of the grid
    # nearly quadruples it
    assert peak(path_solve_bsvie, 80) / peak(path_solve_bsvie, 40) > 3.0


@pytest.mark.parametrize("mode", ["full", "trivial", "delay"])
def test_bsde_is_the_one_row_family(mode):
    # family i of the driver-free family whose every terminal is xi is the
    # BSDE of xi stepped back to t_i: the diagonal is the BSDE's value and
    # every pair (i, r) holds the BSDE's z and k at running time r
    noise = make_noise(n_steps=12, n_paths=400, seed=5, levy=LevyMeasure.from_atoms([[-0.1, 2.0]]))
    engine = CondExpEngine(
        FiltrationMode(mode=mode, delay=0.25 if mode == "delay" else 0.0),
        RegressionSpec(degree=2, variables=("brownian", "jump_counts")), noise,
    )
    n = noise.grid.n_steps
    xi = noise.brownian_levels[:, -1] ** 2 + noise.count_levels[0][:, -1]
    bsde = solve_bsde(xi, None, noise, engine)
    family = solve_bsvie(np.broadcast_to(xi, (n + 1, noise.n_paths)), None, noise, engine)
    np.testing.assert_allclose(family.y, bsde.y.T, rtol=0, atol=1e-12 * np.abs(xi).max())
    for r in range(n):
        col = _column(r)
        np.testing.assert_allclose(family.z[col], np.broadcast_to(bsde.z[r], family.z[col].shape),
                                   rtol=0, atol=1e-12 * np.abs(bsde.z).max())
        np.testing.assert_allclose(family.k[col], np.broadcast_to(bsde.k[r], family.k[col].shape),
                                   rtol=0, atol=1e-12 * np.abs(bsde.k).max())


@pytest.mark.parametrize("shape", [(9, 7), (9, 10, 2), (8, 10), (9, 1, 1), ()])
def test_malformed_terminal_family_is_rejected(shape):
    noise = make_noise(n_steps=8, n_paths=10)
    with pytest.raises(ValidationError, match="terminal family"):
        solve_bsvie(np.ones(shape), None, noise, trivial_engine(noise))
    with pytest.raises(ValidationError, match="terminal family"):
        family_statistics(np.ones(shape), noise, trivial_engine(noise))


@pytest.mark.parametrize("shape", [(9,), (9, 1)])
def test_deterministic_terminal_family_is_accepted(shape):
    noise = make_noise(n_steps=8, n_paths=10)
    zeta = noise.grid.nodes.reshape(shape)
    per_path = np.broadcast_to(noise.grid.nodes[:, None], (9, 10))
    sol = solve_bsvie(zeta, None, noise, trivial_engine(noise))
    ref = solve_bsvie(per_path, None, noise, trivial_engine(noise))
    assert np.array_equal(sol.y, ref.y) and np.array_equal(sol.z, ref.z)

