import threading
import tracemalloc

import numpy as np
import pytest

from volterra_control import acceptance
from volterra_control.condexp import CondExpEngine
from volterra_control.malliavin import (
    Const,
    DualityResult,
    JumpIntegral,
    WienerIntegral,
    verify_duality_brownian,
    verify_duality_jump,
)
from volterra_control.model import (
    FiltrationMode,
    LevyMeasure,
    RegressionSpec,
    build_time_grid,
    time_quadrature_weights,
)
from volterra_control.paths import generate_noise

EMPTY = LevyMeasure.from_atoms([])
ONE_ATOM = LevyMeasure.from_atoms([[1.0, 2.0]])


def make_noise(n_steps=100, n_paths=1000, seed=1, levy=EMPTY):
    grid = build_time_grid(1.0, n_steps)
    return generate_noise(grid, levy, n_paths=n_paths, seed=seed, n_blocks=1)


def _brownian_engine(noise, degree=2):
    return CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=degree, variables=("brownian",)),
        noise, cache_designs=False,
    )


# --------------------------------------------------------------------------- #
# derivatives of the functional calculus
# --------------------------------------------------------------------------- #

def test_brownian_derivative_of_unit_integrand():
    noise = make_noise()
    d = WienerIntegral(1.0).d_brownian(37)
    assert np.allclose(d.evaluate(noise), 1.0)


def test_brownian_derivative_chain_rule_square():
    noise = make_noise()
    w = WienerIntegral(1.0)
    d = (w**2).d_brownian(10)
    assert np.allclose(d.evaluate(noise), 2.0 * w.evaluate(noise), atol=1e-12)


def test_brownian_derivative_of_constant_is_zero():
    noise = make_noise()
    assert np.allclose(Const(5.0).d_brownian(3).evaluate(noise), 0.0)


def test_derivative_of_adapted_functional_vanishes_later():
    # integrand supported on [0, 0.5): derivative at later nodes is zero
    noise = make_noise()
    w = WienerIntegral(lambda t: 1.0 if t < 0.5 else 0.0)
    assert np.allclose(w.d_brownian(70).evaluate(noise), 0.0)
    assert np.allclose((w**2).d_brownian(70).evaluate(noise), 0.0)


def _jump_difference(f, noise, node, atom):
    """The difference-form jump derivative, as the duality verifier forms it."""
    return f.evaluate_with_jump(noise, node, atom) - f.evaluate(noise)


def test_jump_derivative_of_unit_mark():
    noise = make_noise(levy=ONE_ATOM)
    assert np.allclose(_jump_difference(JumpIntegral(1.0), noise, 12, 0), 1.0)


def test_jump_derivative_difference_form_square():
    noise = make_noise(levy=ONE_ATOM)
    g = JumpIntegral(1.0)
    expected = 2.0 * g.evaluate(noise) + 1.0
    assert np.allclose(_jump_difference(g**2, noise, 5, 0), expected, atol=1e-12)


def test_jump_derivative_of_constant_is_zero():
    noise = make_noise(levy=ONE_ATOM)
    assert np.allclose(_jump_difference(Const(2.0), noise, 5, 0), 0.0)


def test_wiener_integral_is_brownian_terminal():
    noise = make_noise()
    vals = WienerIntegral(1.0).evaluate(noise)
    assert np.allclose(vals, noise.brownian_levels[:, -1], atol=1e-12)


# --------------------------------------------------------------------------- #
# duality identities
# --------------------------------------------------------------------------- #

def test_brownian_duality_square_case():
    noise = make_noise(n_steps=200, n_paths=50_000, seed=7)
    res = verify_duality_brownian(WienerIntegral(1.0) ** 2, lambda i, b: b, noise)
    assert abs(res.lhs - 1.0) <= 3 * res.se_lhs
    assert abs(res.rhs - 1.0) <= 3 * res.se_rhs
    assert res.gap_in_se <= 3.0


def test_brownian_duality_isometry_case():
    noise = make_noise(n_steps=100, n_paths=50_000, seed=8)
    res = verify_duality_brownian(WienerIntegral(1.0), lambda i, _b: 1.0, noise)
    # the derivative is the constant 1 and so is psi: every right-hand sample
    # is the same sum of quadrature weights, so the right side is exact up to
    # rounding and its SE collapses to float dust
    assert abs(res.lhs - 1.0) <= 3 * res.se_lhs
    assert abs(res.rhs - 1.0) <= 3 * res.se_rhs + 1e-12


def test_brownian_duality_constant_functional():
    noise = make_noise(n_steps=50, n_paths=20_000, seed=9)
    res = verify_duality_brownian(Const(4.0), lambda i, _b: 1.0, noise)
    assert abs(res.lhs) <= 3 * res.se_lhs
    assert res.rhs == 0.0  # derivative is exactly zero


def _sample_result(name, lhs_samples, rhs_samples):
    """Both sides' means and ``std(ddof=1) / sqrt(N)`` standard errors."""
    root_n = np.sqrt(lhs_samples.shape[0])
    return DualityResult(
        name=name, lhs=float(lhs_samples.mean()), rhs=float(rhs_samples.mean()),
        se_lhs=float(lhs_samples.std(ddof=1) / root_n),
        se_rhs=float(rhs_samples.std(ddof=1) / root_n),
    )


def _column_stack_duality_brownian(f, psi, noise):
    """An unprojected ``verify_duality_brownian``: every psi value stacked
    into one ``(N, n)`` matrix, from the bundle's cached levels, before either
    side is formed; the right-hand samples ``sum_i w_i D_i F psi_i`` are
    summed in a plain loop."""
    n = noise.n_steps
    f_vals = f.evaluate(noise)
    levels = noise.brownian_levels
    psi_vals = np.column_stack([np.broadcast_to(psi(i, levels[:, i]), (noise.n_paths,))
                                for i in range(n)])
    lhs_samples = f_vals * np.einsum("ps,ps->p", psi_vals, noise.d_brownian)
    w = time_quadrature_weights(noise.grid)
    rhs_samples = np.zeros(noise.n_paths)
    for i in range(n):
        rhs_samples += f.d_brownian(i).evaluate(noise) * psi_vals[:, i] * w[i]
    return _sample_result("brownian", lhs_samples, rhs_samples)


def test_streamed_brownian_duality_matches_column_stack():
    noise = make_noise(n_steps=60, n_paths=3000, seed=13)
    cases = [
        (WienerIntegral(1.0) ** 2, lambda i, b: b),
        # sin(b) is not a polynomial in B(t): a projected right-hand side
        # would not have the raw samples' mean here
        (WienerIntegral(lambda t: 1.0 + t) ** 3, lambda i, b: np.sin(b)),
        (WienerIntegral(1.0), lambda i, _b: 1.0),
    ]
    for f, psi in cases:
        got = verify_duality_brownian(f, psi, noise)
        ref = _column_stack_duality_brownian(f, psi, noise)
        for field in ("lhs", "rhs", "se_lhs", "se_rhs"):
            np.testing.assert_allclose(getattr(got, field), getattr(ref, field), rtol=1e-12,
                                       atol=1e-15, err_msg=field)


def test_brownian_duality_rejects_a_misshaped_integrand():
    noise = make_noise(n_steps=10, n_paths=100, seed=14)
    with pytest.raises(ValueError):
        verify_duality_brownian(WienerIntegral(1.0), lambda i, _b: np.ones(99), noise)


@pytest.mark.parametrize("verifier", ["brownian", "jump"])
def test_misshaped_integrand_raises_from_a_worker(cpus, verifier):
    cpus(3)
    noise = make_noise(n_steps=10, n_paths=100, seed=14, levy=ONE_ATOM)
    callers = set()

    def integrand(*args):
        callers.add(threading.current_thread())
        return np.ones(99)

    with pytest.raises(ValueError):
        if verifier == "brownian":
            verify_duality_brownian(WienerIntegral(1.0), integrand, noise)
        else:
            verify_duality_jump(JumpIntegral(1.0), integrand, noise)
    assert callers and threading.main_thread() not in callers


def _duality_results(n_paths, n_blocks):
    grid = build_time_grid(1.0, 50)
    noise_b = generate_noise(grid, EMPTY, n_paths=n_paths, seed=5, n_blocks=n_blocks)
    noise_j = generate_noise(grid, ONE_ATOM, n_paths=n_paths, seed=6, n_blocks=n_blocks)
    return [
        verify_duality_brownian(WienerIntegral(1.0) ** 2, lambda i, b: b, noise_b),
        verify_duality_jump(JumpIntegral(1.0) ** 2, lambda i, q, c: 1.0 + 0.1 * i + c[q],
                            noise_j),
    ]


@pytest.mark.parametrize("n_paths, n_blocks", [(10002, 6), (7, 1)])
def test_duality_does_not_depend_on_cpu_count(cpus, n_paths, n_blocks):
    cpus(1)
    sequential = _duality_results(n_paths, n_blocks)
    cpus(3)
    assert _duality_results(n_paths, n_blocks) == sequential


def test_jump_duality_square_case():
    noise = make_noise(n_steps=100, n_paths=50_000, seed=10, levy=ONE_ATOM)
    res = verify_duality_jump(JumpIntegral(1.0) ** 2, lambda i, q, _c: 1.0, noise)
    assert abs(res.lhs - 2.0) <= 3 * res.se_lhs
    assert abs(res.rhs - 2.0) <= 3 * res.se_rhs


def test_jump_duality_isometry_case():
    noise = make_noise(n_steps=100, n_paths=50_000, seed=11, levy=ONE_ATOM)
    res = verify_duality_jump(JumpIntegral(1.0), lambda i, q, _c: 1.0, noise)
    assert abs(res.lhs - 2.0) <= 3 * res.se_lhs
    assert abs(res.rhs - 2.0) <= 3 * res.se_rhs + 1e-12


def test_chunked_compensation_equals_the_whole_array():
    # three chunks of paths, two atoms, a mark that depends on time and size
    levy = LevyMeasure.from_atoms([[1.0, 2.0], [-0.5, 0.7]])
    noise = make_noise(n_steps=30, n_paths=2500, seed=15, levy=levy)
    f = JumpIntegral(lambda t, e: e * (1.0 + t))
    vals = f._values(noise)
    assert np.array_equal(f.evaluate(noise),
                          np.einsum("ms,mps->p", vals, noise.compensated_counts))

    def phi(i, q, _c):
        return 1.0 + 0.1 * i - 0.2 * q

    f_vals = f.evaluate(noise)
    res = verify_duality_jump(f, phi, noise)
    lhs = np.zeros(noise.n_paths)
    for q in range(2):
        for i in range(noise.n_steps):
            lhs += phi(i, q, None) * noise.compensated_counts[q, :, i]
    lhs *= f_vals
    assert res.lhs == float(lhs.mean())


def _cached_levels_duality_jump(f, phi, noise):
    """An unprojected ``verify_duality_jump`` on the bundle's cached levels:
    ``phi`` reads the cached ``count_levels``, the left side the cached
    ``compensated_counts``, and the right-hand samples are
    ``sum_{i,q} w_i nu_q (F^{+(i,q)} - F) phi_{i,q}``.  Both sides sum node by
    node, the atoms inside each node, as the verifier does."""
    n_paths = noise.n_paths
    counts = noise.count_levels
    f_vals = f.evaluate(noise)
    w_t = time_quadrature_weights(noise.grid)
    lhs_samples = np.zeros(n_paths)
    rhs_samples = np.zeros(n_paths)
    for i in range(noise.n_steps):
        for q in range(noise.levy.n_atoms):
            phi_i = np.broadcast_to(phi(i, q, counts[:, :, i]), (n_paths,))
            lhs_samples += phi_i * noise.compensated_counts[q, :, i]
            d_f = f.evaluate_with_jump(noise, i, q) - f_vals
            rhs_samples += phi_i * d_f * noise.levy.weights[q] * w_t[i]
    lhs_samples *= f_vals
    return _sample_result("jump", lhs_samples, rhs_samples)


TWO_ATOMS = LevyMeasure.from_atoms([[1.0, 2.0], [-0.5, 0.7]])


@pytest.mark.parametrize("f, levy", [
    (JumpIntegral(1.0) ** 2, ONE_ATOM),
    (JumpIntegral(1.0), ONE_ATOM),
    (JumpIntegral(lambda t, e: e * (1.0 + t)) ** 2, TWO_ATOMS),
    (WienerIntegral(1.0) * JumpIntegral(1.0), ONE_ATOM),
], ids=["jump_square", "jump_isometry", "two_atoms", "mixed"])
def test_streamed_jump_duality_matches_the_engine_on_cached_levels(f, levy):
    noise = make_noise(n_steps=40, n_paths=3000, seed=16, levy=levy)

    def phi(i, q, c):
        return 1.0 + 0.1 * i - 0.2 * q + 0.05 * c[q]

    for g in (phi, lambda i, q, _c: 1.0):
        # all four fields, the standard errors included, bit for bit
        assert verify_duality_jump(f, g, noise) == _cached_levels_duality_jump(f, g, noise)


@pytest.mark.parametrize("stage, names", [
    ("brownian_duality", ("brownian_square", "brownian_isometry")),
    ("jump_duality", ("jump_square", "jump_isometry")),
])
def test_c7_stages_form_no_array_of_levels(stage, names, monkeypatch):
    drawn = []

    def draw_then_trace(*args, **kwargs):
        drawn.append(generate_noise(*args, **kwargs))
        # traced from here on: the bundle's own increments and counts are not counted
        tracemalloc.start()
        return drawn[-1]

    monkeypatch.setattr(acceptance, "generate_noise", draw_then_trace)
    n_paths = 20_000
    try:
        getattr(acceptance, stage)(names, n_paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (noise,) = drawn
    # one float array of levels, (n_steps + 1, N), is 32 MB (Brownian) or 16 MB (jump)
    levels_bytes = (noise.n_steps + 1) * n_paths * 8
    assert peak < levels_bytes / 4
    assert "brownian_levels" not in noise.__dict__
    assert "count_levels" not in noise.__dict__


def test_jump_derivative_reads_one_mark_per_node():
    noise = make_noise(n_steps=100, n_paths=500, seed=17, levy=ONE_ATOM)
    calls = []

    def h(t, e):
        calls.append((t, e))
        return e * (1.0 + t)

    f = JumpIntegral(h)
    table = f._values(noise)
    for node in (0, 37, 99):
        assert np.array_equal(f.evaluate_with_jump(noise, node, 0),
                              f.evaluate(noise) + table[0, node])
    calls.clear()
    verify_duality_jump(JumpIntegral(h) ** 2, lambda i, q, _c: 1.0, noise)
    # the mark table once for the plain evaluation, then one mark per (node, atom)
    n, m = noise.n_steps, noise.levy.n_atoms
    assert len(calls) <= 2 * n * m


# --------------------------------------------------------------------------- #
# martingale-representation reconstruction
# --------------------------------------------------------------------------- #

def clark_ocone_reconstruction(f, noise, degree=2):
    """Martingale-representation reconstruction ``E[F] + sum E[D_t F|F_t] dB``.

    Returns per-path reconstructed values; the mean-square gap to the true
    functional shrinks linearly in the step size.
    """
    f_vals = f.evaluate(noise)
    engine = _brownian_engine(noise, degree)
    recon = np.full(noise.n_paths, f_vals.mean())
    for i in range(noise.n_steps):
        proj = engine.project(i, f.d_brownian(i).evaluate(noise))
        recon += proj * noise.d_brownian[:, i]
    return recon


def test_reconstruction_error_shrinks_with_grid():
    # F = B(T)^2.  With an exact projection E[D_{t_i} F | F_{t_i}] = 2 B(t_i),
    # the gap F - E[F] - sum 2 B(t_i) dB_i is sum (dB_i^2 - dt), whose mean
    # square is 2 dt; any regression error adds to it.  A projection one node
    # late reads about 3x that.
    f = WienerIntegral(1.0) ** 2
    for n in (50, 200):
        noise = make_noise(n_steps=n, n_paths=20_000, seed=12)
        mse = float(np.mean((clark_ocone_reconstruction(f, noise) - f.evaluate(noise)) ** 2))
        two_dt = 2.0 * noise.grid.dt
        assert abs(mse - two_dt) <= 0.1 * two_dt, (n, mse)


def test_integral_memo_never_serves_another_bundle(monkeypatch):
    # give every object the same id(): a memo keyed on id() would hand the
    # second bundle the first bundle's values
    from volterra_control import malliavin

    monkeypatch.setattr(malliavin, "id", lambda obj: 0, raising=False)
    first = make_noise(n_steps=20, n_paths=64, seed=1, levy=ONE_ATOM)
    second = make_noise(n_steps=20, n_paths=64, seed=2, levy=ONE_ATOM)
    wiener, jump = WienerIntegral(1.0), JumpIntegral(1.0)
    wiener.evaluate(first)
    jump.evaluate(first)
    assert np.array_equal(wiener.evaluate(second), second.d_brownian @ np.ones(20))
    assert np.array_equal(
        jump.evaluate(second),
        np.einsum("ms,mps->p", np.ones((1, 20)), second.compensated_counts),
    )
