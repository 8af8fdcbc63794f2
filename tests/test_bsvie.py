import math
import tracemalloc
from types import SimpleNamespace

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
    trapezoid_weights,
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


def zero_driver(i, r, y, z, k, x):
    return 0.0


def zero_columns(n_steps):
    """Per-column pair squares of the zero triple, ``(r + 1,)`` per running time."""
    return [np.zeros(r + 1) for r in range(n_steps)]


def solution_blocks(sol):
    """A solution's ``z`` and ``k`` as the ``(1 + n_atoms, r + 1, p)`` block per column."""
    return [np.concatenate([z[None], k]) for z, k in zip(sol.z, sol.k)]


def random_triple(noise, engine, rng):
    """A triple of normal draws, each block as wide as its node's design."""
    n, m = noise.grid.n_steps, noise.levy.n_atoms
    return BsvieTriple(
        y=rng.normal(size=(n + 1, noise.n_paths)),
        blocks=[rng.normal(size=(1 + m, r + 1, engine.design_at(r).phi.shape[0]))
                for r in range(n)],
    )


def on_paths(blocks, engine):
    """Coefficient blocks evaluated on the paths, ``(1 + n_atoms, r + 1, N)`` per column."""
    out = []
    for r, block in enumerate(blocks):
        phi = engine.design_at(r).phi
        out.append((block.reshape(-1, phi.shape[0]) @ phi).reshape(*block.shape[:-1], -1))
    return out


def assert_columns_close(got, want, **tol):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, **tol)


# --------------------------------------------------------------------------- #
# the path-valued oracle
# --------------------------------------------------------------------------- #
# The recursion, pass and weighted norm below are the solver this module had
# before the blocks held regression coefficients: every target is formed on
# the paths, projected through ``engine.project`` and stored evaluated, and
# each squared change is a path mean.  A path-valued triple holds, per running
# time ``r``, the ``(1 + n_atoms, r + 1, N)`` block of ``Z`` and ``K`` on the paths.

def path_zeros(n_steps, n_paths, n_atoms):
    return BsvieTriple(
        y=np.zeros((n_steps + 1, n_paths)),
        blocks=[np.zeros((1 + n_atoms, r + 1, n_paths)) for r in range(n_steps)],
    )


def weighted_norm(y, blocks, grid, levy, beta_w):
    """Exponentially weighted squared norm of a path-valued triple."""
    pair_sq = []
    for block in blocks:
        sq = np.mean(block**2, axis=2)
        pair_sq.append(sq[0] + levy.weights @ sq[1:])
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
    scale = np.concatenate([[dt], noise.levy.weights * dt])[:, None, None]
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
        zk_new = proj[fam:].reshape(1 + m, fam, n_paths)
        zk_new /= scale
        yield r, zk_new


def path_family_step(zeta, driver, frozen, noise, engine):
    """One in-place pass on a path-valued triple; returns ``(y_sq, pair_sq)``."""
    n = noise.grid.n_steps
    m = noise.levy.n_atoms
    families = np.arange(n)[:, None]
    y_frozen = frozen.y.copy()
    drift = None
    if driver is not None:
        def drift(r):
            block = frozen.blocks[r]
            x_r = engine.x_paths.row(r) if engine.x_paths is not None else None
            return driver(families[:r + 1], r, y_frozen[r], block[0],
                          block[1:] if m else None, x_r)

    y = frozen.y
    y_sq = np.empty(n + 1)
    pair_sq = [None] * n
    for r, zk_new in path_family_columns(zeta, y, noise, engine, drift):
        sq = _path_replace(frozen.blocks[r], zk_new)
        pair_sq[r] = sq[0] + noise.levy.weights @ sq[1:]
        y_sq[r] = np.mean((y[r] - y_frozen[r]) ** 2)
    y_sq[n] = np.mean((y[n] - y_frozen[n]) ** 2)
    return y_sq, pair_sq


def path_solve_bsvie(zeta, driver, noise, engine, beta_w=20.0, tol=1e-6, max_iter=50):
    """The fixed-point loop on a path-valued triple; returns it and the log."""
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
            scale = max(weighted_norm(current.y, current.blocks, grid, noise.levy, beta_w),
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
    assert math.isclose(_weighted_sum(np.ones(101), zero_columns(100), grid, 0.0), 1.0,
                        rel_tol=1e-12)


def test_weighted_norm_exponential_weight():
    grid = build_time_grid(1.0, 100)
    val = _weighted_sum(np.ones(101), zero_columns(100), grid, 2.0)
    assert abs(val - (math.e**2 - 1.0) / 2.0) < 1e-3


def test_weighted_norm_zero_triple():
    grid = build_time_grid(1.0, 10)
    assert _weighted_sum(np.zeros(11), zero_columns(10), grid, 5.0) == 0.0


def _first_index_weighted_sum(y_sq, pair_sq, grid, beta_w):
    """The weighted norm summed first index by first index, over the full
    ``n x n`` matrix of pair squares."""
    n, dt = grid.n_steps, grid.dt
    w_t = trapezoid_weights(n + 1, dt)
    e_t = np.exp(beta_w * grid.nodes)
    rows = np.zeros((n, n))
    for r, col in enumerate(pair_sq):
        rows[:r + 1, r] = col
    total = 0.0
    for i in range(n + 1):
        inner = y_sq[i] * e_t[i]
        if i < n:
            inner += float(e_t[i:n] @ rows[i, i:]) * dt
        total += w_t[i] * inner
    return total


@settings(max_examples=50, deadline=None)
@given(n_steps=st.integers(2, 60), beta_w=st.floats(0.0, 30.0), seed=st.integers(0, 2**16))
def test_weighted_norm_is_the_first_index_sum(n_steps, beta_w, seed):
    # summing each running time's pairs first reorders the additions only
    rng = np.random.default_rng(seed)
    grid = build_time_grid(1.0, n_steps)
    y_sq = rng.uniform(0.0, 2.0, n_steps + 1)
    pair_sq = [rng.uniform(0.0, 2.0, r + 1) for r in range(n_steps)]
    assert math.isclose(_weighted_sum(y_sq, pair_sq, grid, beta_w),
                        _first_index_weighted_sum(y_sq, pair_sq, grid, beta_w), rel_tol=1e-13)


# --------------------------------------------------------------------------- #
# family step
# --------------------------------------------------------------------------- #

def test_family_step_deterministic_terminal():
    noise = make_noise(n_steps=20)
    n = 20
    zeta = np.broadcast_to(noise.grid.nodes[:, None], (21, noise.n_paths)).copy()
    engine = trivial_engine(noise)
    out = BsvieTriple.zeros(n, noise.n_paths)
    assert out.blocks == [None] * n  # the zero iterate holds no blocks
    solve_family_step(zeta, zero_driver, out, noise, engine)
    # trivial mode: every block is the intercept alone
    assert [b.shape for b in out.blocks] == [(1, r + 1, 1) for r in range(n)]
    # deterministic terminal: the diagonal reproduces it exactly and the
    # coefficient rows are pure sample noise around zero
    assert np.allclose(out.y, zeta, atol=1e-14)
    se = 1.0 / math.sqrt(noise.n_paths * noise.grid.dt)
    assert max(np.max(np.abs(b)) for b in out.blocks) < 5 * se


def test_family_step_ignores_frozen_when_driver_is_zero_function():
    noise = make_noise(n_steps=15)
    n = 15
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :]
    a = BsvieTriple.zeros(n, noise.n_paths)
    b = BsvieTriple.zeros(n, noise.n_paths)

    def driver(i, r, y_frozen, z, k, x):
        return y_frozen  # frozen y stays identically zero

    solve_family_step(zeta, driver, a, noise, brownian_engine(noise))
    solve_family_step(zeta, zero_driver, b, noise, brownian_engine(noise))
    # node 0 conditions on trivial information, every later node on (1, B, B^2)
    assert [blk.shape for blk in a.blocks] == [(1, r + 1, 1 if r == 0 else 3) for r in range(n)]
    assert np.array_equal(a.y, b.y)
    assert all(np.array_equal(p, q) for p, q in zip(a.blocks, b.blocks))


def test_family_step_martingale_terminal_tracks_brownian():
    noise = make_noise(n_steps=50, n_paths=20_000, seed=5)
    n = 50
    b_levels = noise.brownian_levels
    zeta = noise.grid.nodes[:, None] * b_levels[:, -1][None, :]
    engine = brownian_engine(noise)
    out = BsvieTriple.zeros(n, noise.n_paths)
    solve_family_step(zeta, zero_driver, out, noise, engine)
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
    # the second pass repeats the first bit for bit
    noise = make_noise(n_steps=30, n_paths=2000, seed=3)
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :]
    sol = solve_bsvie(zeta, zero_driver, noise, brownian_engine(noise), tol=1e-9)
    assert len(sol.iteration_log) == 2
    assert sol.iteration_log[1] == 0.0


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
    pairs = np.array([w_t[:r + 1] @ col for r, col in enumerate(pair_sq)])
    return float(w_t @ (e_t * y_sq) + dt * (e_t[:n] @ pairs))


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
    re_solved = BsvieTriple(y=sol.y.copy(), blocks=solution_blocks(sol))
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
    b = BsvieTriple.zeros(n, noise.n_paths)
    b.y += 1.0
    scale_b = None
    for _ in range(60):
        squares = solve_family_step(zeta, driver, b, noise, engine)
        if scale_b is None:
            scale_b = weighted_norm(b.y, on_paths(b.blocks, engine), noise.grid, EMPTY, 20.0)
        if _weighted_sum(*squares, noise.grid, 20.0) <= tol * scale_b:
            break
    else:
        pytest.fail("no convergence from the warm triple")
    a_zk, b_zk = on_paths(solution_blocks(a), engine), on_paths(b.blocks, engine)
    diff = weighted_norm(a.y - b.y, [p - q for p, q in zip(a_zk, b_zk)], noise.grid, EMPTY, 20.0)
    scale = weighted_norm(a.y, a_zk, noise.grid, EMPTY, 20.0)
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
        solve_bsvie(zeta, zero_driver, noise, trivial_engine(noise), max_iter=max_iter)


def _family_solve_entry(entry, zeta, noise, engine):
    if entry == "solve_family_step":
        n = noise.grid.n_steps
        return solve_family_step(zeta, zero_driver, BsvieTriple.zeros(n, noise.n_paths),
                                 noise, engine)
    if entry == "solve_bsvie":
        return solve_bsvie(zeta, zero_driver, noise, engine)
    return family_statistics(zeta, noise, engine)


@pytest.mark.parametrize("entry", ["solve_family_step", "solve_bsvie", "family_statistics"])
def test_an_engine_on_another_bundle_is_rejected(entry):
    # two bundles of the same shape: the other one's designs would regress
    # this one's increments silently, on an unrelated sample of paths
    noise, other = make_noise(10, 2000, seed=1), make_noise(10, 2000, seed=2)
    zeta = noise.grid.nodes[:, None] * noise.d_brownian.sum(axis=1)[None, :]
    _family_solve_entry(entry, zeta, noise, brownian_engine(noise))
    with pytest.raises(ValidationError, match="another noise bundle"):
        _family_solve_entry(entry, zeta, noise, brownian_engine(other))


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
        fd = np.diff(tri.blocks[j][0], axis=0) / dt
        total += float(np.mean(fd**2, axis=1).sum()) * dt * dt
    return total


def _triangle_statistics(tri, grid):
    z_mean = [block[0].mean(axis=1) for block in tri.blocks]
    zero_row = max(float(np.max(np.abs(block[0, 0]))) for block in tri.blocks)
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
    assert_columns_close(stats.z_mean, z_mean, rtol=1e-10, atol=1e-12)
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
        assert all(np.array_equal(a, b) for a, b in zip(got.z_mean, stats.z_mean)), name
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
            out_r, frozen_r = out.blocks[r], frozen.blocks[r]
            y_proj = engine.project(r, y_run)
            out_r[0, i] = engine.project(r, y_run * noise.d_brownian[:, r]) / dt
            for q in range(m):
                w_dt = noise.levy.weights[q] * dt
                out_r[1 + q, i] = engine.project(r, y_run * comp[q, :, r]) / w_dt
            g = driver(i, r, frozen.y[r], frozen_r[0, i], frozen_r[1:, i], None)
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
    got = random_triple(noise, engine, rng)
    # the reference reads the frozen triple on the paths
    frozen = BsvieTriple(got.y.copy(), on_paths(got.blocks, engine))
    b_total = noise.d_brownian.sum(axis=1)
    zeta = noise.grid.nodes[:, None] * b_total[None, :] + 0.1 * noise.count_levels[0][:, -1]
    solve_family_step(zeta, _jump_driver, got, noise, engine)
    ref = _family_step_reference(zeta, _jump_driver, frozen, noise, engine)
    for a, b in ((got.y, ref.y), *zip(on_paths(got.blocks, engine), ref.blocks)):
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
            zsq = float(np.mean((a.blocks[j][0, i] - b.blocks[j][0, i]) ** 2))
            ksq = float(np.dot(levy.weights,
                               np.mean((a.blocks[j][1:, i] - b.blocks[j][1:, i]) ** 2, axis=1)))
            inner += e_t[j] * (zsq + ksq) * dt
        total += w_t[i] * inner
    return total


def _gram_distance(a, b, engine, beta_w):
    """The weighted distance of two coefficient triples, formed as a pass
    forms it: Gram forms of each block's change, then ``_weighted_sum``."""
    grid, levy = engine.grid, engine.noise.levy
    pair_sq = []
    for r, (old, new) in enumerate(zip(a.blocks, b.blocks)):
        sq = engine.design_at(r).mean_squares(new - old)
        pair_sq.append(sq[0] + levy.weights @ sq[1:])
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

    def paths(t):
        return BsvieTriple(t.y, on_paths(t.blocks, engine))

    a, b = random_triple(noise, engine, rng), random_triple(noise, engine, rng)
    zero = BsvieTriple(np.zeros_like(a.y), [np.zeros_like(block) for block in a.blocks])
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


def _ref_zeros(n, n_paths, m):
    """A path-valued triple stored first-index-major: pair ``(i, j)`` at row ``_ref_index``."""
    n_pairs = n * (n + 1) // 2
    return SimpleNamespace(y=np.zeros((n + 1, n_paths)), z=np.zeros((n_pairs, n_paths)),
                           k=np.zeros((n_pairs, m, n_paths)))


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
    out = _ref_zeros(n, n_paths, m)
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
        for i, idx in enumerate(rows):
            g = driver(i, r, frozen.y[r], frozen.z[idx], frozen.k[idx] if m else None, None)
            y_run[i] = proj[i] + np.asarray(g, dtype=float) * dt
    return out


def _ref_solve_bsvie(zeta, driver, noise, engine, beta_w, tol, max_iter):
    grid, levy = noise.grid, noise.levy
    current = _ref_zeros(grid.n_steps, noise.n_paths, levy.n_atoms)
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
    driver = _jump_driver if with_driver else zero_driver
    sol = solve_bsvie(zeta, driver, noise, engine, beta_w=5.0, tol=1e-10, max_iter=40)
    ref, log = _ref_solve_bsvie(zeta, driver, noise, engine, 5.0, 1e-10, 40)
    if not with_driver:
        # the second pass repeats the first
        assert log[1] == sol.iteration_log[1] == 0.0
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
    zk = on_paths(solution_blocks(sol), engine)
    for i in range(n_steps):
        for j in range(i, n_steps):
            idx = _ref_index(n_steps, i, j)
            np.testing.assert_allclose(zk[j][0, i], ref.z[idx], rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(zk[j][1:, i], ref.k[idx], rtol=1e-12, atol=1e-12 * scale)


# --------------------------------------------------------------------------- #
# the coefficient triangle against the path-valued oracle
# --------------------------------------------------------------------------- #

def _reading_driver(i, r, y, z, k, x):
    """A generator that reads the frozen ``Z`` and ``K`` columns, not only ``y``."""
    out = np.sin(y) + 0.2 * z + 0.01 * (i - r)
    return out if k is None else out + 0.2 * k.sum(axis=0)


def _assert_passes_match_oracle(zeta, driver, noise, engine, passes=3):
    """``passes`` in-place passes from the zero triple, against the oracle's."""
    got = BsvieTriple.zeros(noise.grid.n_steps, noise.n_paths)
    ref = path_zeros(noise.grid.n_steps, noise.n_paths, noise.levy.n_atoms)
    tol = {"rtol": 1e-10, "atol": 1e-12}
    for _ in range(passes):
        (y_sq, pair_sq) = solve_family_step(zeta, driver, got, noise, engine)
        (ref_y_sq, ref_pair_sq) = path_family_step(zeta, driver, ref, noise, engine)
        np.testing.assert_allclose(got.y, ref.y, **tol)
        np.testing.assert_allclose(y_sq, ref_y_sq, **tol)
        assert_columns_close(on_paths(got.blocks, engine), ref.blocks, **tol)
        assert_columns_close(pair_sq, ref_pair_sq, **tol)


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
    _assert_passes_match_oracle(zeta, _reading_driver if with_driver else zero_driver, noise,
                                engine)


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
    # (and so regresses on the Brownian level alone)
    noise = make_noise(n_steps=6, n_paths=50, seed=3)
    fwd = ForwardPaths(grid=noise.grid, state=noise.brownian_levels.copy(),
                       log_state=True)
    engine = CondExpEngine(FiltrationMode(mode="full"),
                           RegressionSpec(degree=1, variables=("x", "brownian") if with_state
                                          else ("brownian",)),
                           noise, x_paths=fwd if with_state else None)
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
    family = solve_bsvie(np.broadcast_to(xi, (n + 1, noise.n_paths)), zero_driver, noise, engine)
    np.testing.assert_allclose(family.y, bsde.y.T, rtol=0, atol=1e-12 * np.abs(xi).max())
    z_scale = max(np.abs(z).max() for z in bsde.z)
    k_scale = max(np.abs(k).max() for k in bsde.k)
    for r in range(n):
        np.testing.assert_allclose(family.z[r], np.broadcast_to(bsde.z[r], family.z[r].shape),
                                   rtol=0, atol=1e-12 * z_scale)
        np.testing.assert_allclose(family.k[r],
                                   np.broadcast_to(bsde.k[r][:, None], family.k[r].shape),
                                   rtol=0, atol=1e-12 * k_scale)


@pytest.mark.parametrize("shape", [(9, 7), (9, 10, 2), (8, 10), (9, 1, 1), ()])
def test_malformed_terminal_family_is_rejected(shape):
    noise = make_noise(n_steps=8, n_paths=10)
    with pytest.raises(ValidationError, match="terminal family"):
        solve_bsvie(np.ones(shape), zero_driver, noise, trivial_engine(noise))
    with pytest.raises(ValidationError, match="terminal family"):
        family_statistics(np.ones(shape), noise, trivial_engine(noise))


@pytest.mark.parametrize("shape", [(9,), (9, 1)])
def test_deterministic_terminal_family_is_accepted(shape):
    noise = make_noise(n_steps=8, n_paths=10)
    zeta = noise.grid.nodes.reshape(shape)
    per_path = np.broadcast_to(noise.grid.nodes[:, None], (9, 10))
    sol = solve_bsvie(zeta, zero_driver, noise, trivial_engine(noise))
    ref = solve_bsvie(per_path, zero_driver, noise, trivial_engine(noise))
    assert np.array_equal(sol.y, ref.y)
    assert all(np.array_equal(a, b) for a, b in zip(sol.z, ref.z))

