import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control.bsvie import (
    BsvieTriple,
    ConvergenceError,
    _column,
    family_statistics,
    solve_bsvie,
    solve_family_step,
    weighted_norm,
)
from volterra_control.condexp import CondExpEngine
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


# --------------------------------------------------------------------------- #
# weighted norm
# --------------------------------------------------------------------------- #

def test_weighted_norm_of_constant_value():
    grid = build_time_grid(1.0, 100)
    y = np.ones((101, 4))
    z = np.zeros((100 * 101 // 2, 4))
    k = np.zeros((100 * 101 // 2, 0, 4))
    assert math.isclose(weighted_norm(y, z, k, grid, EMPTY, 0.0), 1.0, rel_tol=1e-12)


def test_weighted_norm_exponential_weight():
    grid = build_time_grid(1.0, 100)
    y = np.ones((101, 4))
    z = np.zeros((100 * 101 // 2, 4))
    k = np.zeros((100 * 101 // 2, 0, 4))
    val = weighted_norm(y, z, k, grid, EMPTY, 2.0)
    assert abs(val - (math.e**2 - 1.0) / 2.0) < 1e-3


def test_weighted_norm_zero_triple():
    grid = build_time_grid(1.0, 10)
    y = np.zeros((11, 3))
    z = np.zeros((55, 3))
    k = np.zeros((55, 0, 3))
    assert weighted_norm(y, z, k, grid, EMPTY, 5.0) == 0.0


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
    out = BsvieTriple.zeros(n, noise.n_paths, 0)
    solve_family_step(zeta, None, out, noise, trivial_engine(noise))
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
    a = BsvieTriple.zeros(n, noise.n_paths, 0)
    b = BsvieTriple.zeros(n, noise.n_paths, 0)

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
    out = BsvieTriple.zeros(n, noise.n_paths, 0)
    solve_family_step(zeta, None, out, noise, brownian_engine(noise))
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
    warm = BsvieTriple.zeros(n, noise.n_paths, 0)
    warm.y += 1.0
    b = solve_bsvie(zeta, driver, noise, engine, tol=tol, max_iter=60, start=warm)
    diff = weighted_norm(a.y - b.y, a.z - b.z, a.k - b.k, noise.grid, EMPTY, 20.0)
    scale = weighted_norm(a.y, a.z, a.k, noise.grid, EMPTY, 20.0)
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
# The oracle is the family solve that stored its triangle before the columns
# were reduced as they were finished: a one-pass ``solve_bsvie`` without a
# generator, then the statistics read off the triangle pair by pair.

def _triangle_family(zeta, noise, engine):
    return solve_bsvie(zeta, None, noise, engine, beta_w=20.0, tol=1e-8, max_iter=5)


def _triangle_z_derivative_norm(sol):
    """First-index derivative norm of Z, summed over the stored triangle."""
    n, dt = sol.grid.n_steps, sol.grid.dt
    total = 0.0
    for j in range(1, n):
        fd = np.diff(sol.z[_column(j)], axis=0) / dt
        total += float(np.mean(fd**2, axis=1).sum()) * dt * dt
    return total


def _triangle_statistics(sol):
    n = sol.grid.n_steps
    z_mean = np.array([sol.z[pair_index(n, i, j)].mean() for j in range(n) for i in range(j + 1)])
    zero_row = max(float(np.max(np.abs(sol.z[pair_index(n, 0, j)]))) for j in range(n))
    return z_mean, zero_row, _triangle_z_derivative_norm(sol)


def test_z_derivative_norm_zero_for_flat_coefficients():
    noise = make_noise(n_steps=20)
    zeta = np.ones((21, noise.n_paths))
    assert family_statistics(zeta, noise, trivial_engine(noise)).z_derivative_norm < 1e-3


def test_z_derivative_norm_for_linear_family():
    noise = make_noise(n_steps=50, n_paths=20_000, seed=29)
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :]
    val = family_statistics(zeta, noise, brownian_engine(noise)).z_derivative_norm
    assert abs(val - 0.5) < 0.1
    assert val == _triangle_z_derivative_norm(_triangle_family(zeta, noise, brownian_engine(noise)))


@settings(max_examples=25, deadline=None)
@given(
    n_steps=st.integers(2, 30),
    n_paths=st.integers(2, 400),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["full", "trivial"]),
    zero_first_row=st.booleans(),
)
def test_streamed_family_statistics_equal_the_triangle(n_steps, n_paths, seed, mode, zero_first_row):
    noise = make_noise(n_steps=n_steps, n_paths=n_paths, seed=seed)
    engine = CondExpEngine(
        FiltrationMode(mode=mode), RegressionSpec(degree=2, variables=("brownian",)), noise,
        cache_designs=False,
    )
    weights = np.random.default_rng(seed).normal(size=n_steps + 1)
    weights[0] = 0.0 if zero_first_row else weights[0]
    zeta = weights[:, None] * noise.d_brownian.sum(axis=1)[None, :] + np.sin(weights)[:, None]
    if zero_first_row:
        zeta[0] = 0.0
    stats = family_statistics(zeta, noise, engine)
    z_mean, zero_row, norm = _triangle_statistics(_triangle_family(zeta, noise, engine))
    assert stats.grid is noise.grid and stats.n_paths == n_paths
    assert np.array_equal(stats.z_mean, z_mean)
    assert stats.zero_row_max == zero_row
    assert stats.z_derivative_norm == norm
    if zero_first_row:
        assert zero_row == 0.0


def test_a_nan_in_row_zero_reaches_its_maximum():
    noise = make_noise(n_steps=6, n_paths=50)
    zeta = np.zeros((7, 50))
    zeta[0, 3] = np.nan
    assert math.isnan(family_statistics(zeta, noise, trivial_engine(noise)).zero_row_max)


def _peak_bytes(solve, n_steps, n_paths):
    noise = make_noise(n_steps=n_steps, n_paths=n_paths, seed=37)
    engine = CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=2, variables=("brownian",)), noise,
        cache_designs=False,
    )
    zeta = noise.grid.nodes[:, None] * noise.d_brownian.sum(axis=1)[None, :]
    noise.brownian_levels  # the regression state belongs to the bundle, not to the solve
    tracemalloc.start()
    try:
        solve(zeta, noise, engine)
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


# --------------------------------------------------------------------------- #
# batched rewrites against the plain loops they replace
# --------------------------------------------------------------------------- #

def _family_step_reference(zeta, driver, frozen, noise, engine):
    """Family by family, one projection call per target column."""
    n, dt = noise.grid.n_steps, noise.grid.dt
    m = noise.levy.n_atoms
    out = BsvieTriple.zeros(n, noise.n_paths, m)
    comp = noise.compensated_counts
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
    n_pairs = n_steps * (n_steps + 1) // 2
    frozen = BsvieTriple(
        y=rng.normal(size=(n_steps + 1, n_paths)),
        z=rng.normal(size=(n_pairs, n_paths)),
        k=rng.normal(size=(n_pairs, 1, n_paths)),
    )
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :] + 0.1 * noise.count_levels[0][:, -1]
    got = BsvieTriple(y=frozen.y.copy(), z=frozen.z.copy(), k=frozen.k.copy())
    solve_family_step(zeta, _jump_driver, got, noise, engine)
    ref = _family_step_reference(zeta, _jump_driver, frozen, noise, engine)
    for a, b in ((got.y, ref.y), (got.z, ref.z), (got.k, ref.k)):
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


@settings(max_examples=25, deadline=None)
@given(
    n_steps=st.integers(2, 12),
    n_paths=st.integers(1, 40),
    n_atoms=st.integers(0, 2),
    beta_w=st.floats(0.0, 20.0),
    seed=st.integers(0, 2**16),
)
def test_weighted_norm_matches_pairwise_loop(n_steps, n_paths, n_atoms, beta_w, seed):
    rng = np.random.default_rng(seed)
    grid = build_time_grid(1.0, n_steps)
    levy = LevyMeasure.from_atoms([[0.1 * (q + 1), 1.0 + q] for q in range(n_atoms)])
    n_pairs = n_steps * (n_steps + 1) // 2

    def triple():
        return BsvieTriple(
            y=rng.normal(size=(n_steps + 1, n_paths)),
            z=rng.normal(size=(n_pairs, n_paths)),
            k=rng.normal(size=(n_pairs, n_atoms, n_paths)),
        )

    a, b = triple(), triple()
    zero = BsvieTriple.zeros(n_steps, n_paths, n_atoms)
    expected = _weighted_norm_reference(a, b, grid, levy, beta_w)
    got = weighted_norm(a.y - b.y, a.z - b.z, a.k - b.k, grid, levy, beta_w)
    assert math.isclose(got, expected, rel_tol=1e-12)
    plain = weighted_norm(a.y, a.z, a.k, grid, levy, beta_w)
    assert math.isclose(plain, _weighted_norm_reference(a, zero, grid, levy, beta_w), rel_tol=1e-12)


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
    out = BsvieTriple.zeros(n, n_paths, m)
    comp = noise.compensated_counts
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
    current = BsvieTriple.zeros(grid.n_steps, noise.n_paths, levy.n_atoms)
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
    np.testing.assert_allclose(sol.iteration_log, log, rtol=1e-12, atol=0.0)
    scale = np.abs(ref.z).max() + np.abs(ref.k).max()
    np.testing.assert_allclose(sol.y, ref.y, rtol=1e-12, atol=1e-12 * np.abs(ref.y).max())
    for i in range(n_steps):
        for j in range(i, n_steps):
            idx = _ref_index(n_steps, i, j)
            got = pair_index(n_steps, i, j)
            np.testing.assert_allclose(sol.z[got], ref.z[idx], rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(sol.k[got], ref.k[idx], rtol=1e-12, atol=1e-12 * scale)


def test_warm_start_triple_is_not_modified():
    n = 12
    levy = LevyMeasure.from_atoms([[-0.1, 2.0]])
    noise = make_noise(n_steps=n, n_paths=200, seed=31, levy=levy)
    engine = CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=2, variables=("brownian", "jump_counts")),
        noise,
    )
    zeta = noise.grid.nodes[:, None] * noise.d_brownian.sum(axis=1)[None, :]
    rng = np.random.default_rng(31)
    n_pairs = n * (n + 1) // 2
    warm = BsvieTriple(
        y=rng.normal(size=(n + 1, noise.n_paths)),
        z=rng.normal(size=(n_pairs, noise.n_paths)),
        k=rng.normal(size=(n_pairs, 1, noise.n_paths)),
    )
    kept = BsvieTriple(y=warm.y.copy(), z=warm.z.copy(), k=warm.k.copy())
    sol = solve_bsvie(zeta, _jump_driver, noise, engine, tol=1e-10, max_iter=60, start=warm)
    for a, b in ((warm.y, kept.y), (warm.z, kept.z), (warm.k, kept.k)):
        assert np.array_equal(a, b)
    assert not np.shares_memory(sol.z, warm.z)
