import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import compensated

from volterra_control import acceptance, paths
from volterra_control.condexp import CondExpEngine
from volterra_control.malliavin import (
    DualityResult,
    JumpIntegral,
    Power,
    WienerIntegral,
    verify_duality_brownian,
    verify_duality_jump,
)
from volterra_control.model import (
    FiltrationMode,
    LevyMeasure,
    RegressionSpec,
    ValidationError,
    build_time_grid,
    time_quadrature_weights,
)
from volterra_control.paths import generate_noise

EMPTY = LevyMeasure.from_atoms([])
ONE_ATOM = LevyMeasure.from_atoms([[1.0, 2.0]])


def make_noise(n_steps=100, n_paths=1000, seed=1, levy=EMPTY):
    return generate_noise(*stream_args(n_steps, n_paths, seed, levy))


def stream_args(n_steps=100, n_paths=1000, seed=1, levy=EMPTY, n_blocks=1):
    """``(grid, levy, n_paths, seed, n_blocks)``, as the verifiers and
    ``generate_noise`` take them."""
    return build_time_grid(1.0, n_steps), levy, n_paths, seed, n_blocks


def brownian_duality(f, psi, *args, **kwargs):
    """The verifier's result for one identity named ``brownian``."""
    (res,) = verify_duality_brownian([("brownian", f, psi)], *stream_args(*args, **kwargs))
    return res


def jump_duality(f, phi, *args, **kwargs):
    """The verifier's result for one identity named ``jump``."""
    (res,) = verify_duality_jump([("jump", f, phi)], *stream_args(*args, **kwargs))
    return res


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
    assert np.allclose(WienerIntegral().d_brownian(noise, 37), 1.0)


def test_brownian_derivative_chain_rule_square():
    noise = make_noise()
    w = WienerIntegral()
    d = (w**2).d_brownian(noise, 10)
    assert np.allclose(d, 2.0 * w.evaluate(noise), atol=1e-12)


def test_brownian_derivative_of_a_first_power_is_the_bases():
    noise = make_noise()
    w = WienerIntegral()
    assert (w**1).d_brownian(noise, 37) == w.d_brownian(noise, 37) == 1.0


def test_power_exponent_above_four_is_rejected():
    with pytest.raises(ValidationError, match="1..4"):
        WienerIntegral() ** 5


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_power_exponent_must_be_an_int_in_one_to_four(k):
    # int(2.5) is 2: a check that reads it would let B(T)^2.5 build and
    # evaluate to NaN on every path with a negative B(T)
    with pytest.raises(ValidationError, match="int in 1..4"):
        Power(WienerIntegral(), k)


def _jump_difference(f, noise, node, atom):
    """The difference-form jump derivative, as the duality verifier forms it."""
    return f.evaluate_with_jump(noise, node, atom) - f.evaluate(noise)


def test_jump_derivative_of_unit_mark():
    noise = make_noise(levy=ONE_ATOM)
    assert np.allclose(_jump_difference(JumpIntegral(), noise, 12, 0), 1.0)


def test_jump_derivative_difference_form_square():
    noise = make_noise(levy=ONE_ATOM)
    g = JumpIntegral()
    expected = 2.0 * g.evaluate(noise) + 1.0
    assert np.allclose(_jump_difference(g**2, noise, 5, 0), expected, atol=1e-12)


def test_wiener_integral_is_brownian_terminal():
    noise = make_noise()
    vals = WienerIntegral().evaluate(noise)
    assert np.allclose(vals, noise.brownian_levels[:, -1], atol=1e-12)


# --------------------------------------------------------------------------- #
# duality identities
# --------------------------------------------------------------------------- #

def test_brownian_duality_square_case():
    res = brownian_duality(WienerIntegral() ** 2, lambda i, b: b,
                           n_steps=200, n_paths=50_000, seed=7)
    assert abs(res.lhs - 1.0) <= 3 * res.se_lhs
    assert abs(res.rhs - 1.0) <= 3 * res.se_rhs
    assert abs(res.lhs - res.rhs) <= 3.0 * res.combined_se


def test_brownian_duality_isometry_case():
    res = brownian_duality(WienerIntegral(), lambda i, _b: 1.0,
                           n_steps=100, n_paths=50_000, seed=8)
    # the derivative is the constant 1 and so is psi: every right-hand sample
    # is the same sum of quadrature weights, so the right side is exact up to
    # rounding and its SE collapses to float dust
    assert abs(res.lhs - 1.0) <= 3 * res.se_lhs
    assert abs(res.rhs - 1.0) <= 3 * res.se_rhs + 1e-12


def test_brownian_duality_constant_functional():
    # Ñ(T) is constant in the Brownian direction and independent of B
    res = brownian_duality(JumpIntegral(), lambda i, _b: 1.0, n_steps=50, n_paths=20_000,
                           seed=9, levy=ONE_ATOM)
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


def _pieces(noise, args):
    """The bundle ``generate_noise(*args)`` cut as the verifiers are streamed
    it: the paths of each piece ``stream_noise`` hands out, as a bundle of
    its own that views the bundle's columns.

    The verifiers evaluate ``F`` and its derivatives on those pieces: a BLAS
    matrix-vector product rounds the last rows of a piece that is not a
    multiple of its vector width differently from the same rows inside a
    longer array.  Built once per bundle, so each integral's memo serves
    every evaluation on a piece.
    """
    rows = []
    paths.stream_noise(*args, lambda r, piece: rows.append(r))
    return [dataclasses.replace(noise, d_brownian=noise.d_brownian[r],
                                jump_counts=noise.jump_counts[:, r])
            for r in sorted(rows, key=lambda r: r.start)]


def _per_piece(evaluate, pieces):
    """``evaluate(piece)`` on each of ``pieces``, joined into one ``(N,)`` row."""
    return np.concatenate([np.broadcast_to(evaluate(piece), (piece.n_paths,))
                           for piece in pieces])


def _column_stack_duality_brownian(f, psi, noise, pieces):
    """An unprojected ``verify_duality_brownian`` on a ``generate_noise``
    bundle and its ``pieces``: every psi value stacked into one ``(N, n)``
    matrix, from the bundle's cached levels, before either side is formed;
    the stochastic integral and the right-hand samples
    ``sum_i w_i D_i F psi_i`` are summed in plain loops over the steps."""
    n = noise.n_steps
    levels = noise.brownian_levels
    psi_vals = np.column_stack([np.broadcast_to(psi(i, levels[:, i]), (noise.n_paths,))
                                for i in range(n)])
    integral = np.zeros(noise.n_paths)
    for i in range(n):
        integral += psi_vals[:, i] * noise.d_brownian[:, i]
    lhs_samples = _per_piece(f.evaluate, pieces) * integral
    w = time_quadrature_weights(noise.grid)
    rhs_samples = np.zeros(noise.n_paths)
    for i in range(n):
        d_f = _per_piece(lambda piece: f.d_brownian(piece, i), pieces)
        rhs_samples += d_f * psi_vals[:, i] * w[i]
    return _sample_result("brownian", lhs_samples, rhs_samples)


BROWNIAN_CASES = [
    (WienerIntegral() ** 2, lambda i, b: b),
    # sin(b) is not a polynomial in B(t): a projected right-hand side would
    # not have the raw samples' mean here
    (WienerIntegral() ** 3, lambda i, b: np.sin(b)),
    (WienerIntegral(), lambda i, _b: 1.0),
    (WienerIntegral() ** 4, lambda i, b: b),
    # the cases run without atoms: the jump integral is zero on every path,
    # and so are both sides
    (JumpIntegral() ** 2, lambda i, b: b),
]


def _assert_brownian_matches_column_stack(args):
    # all the cases in one streamed pass, each bit for bit its reference
    noise = generate_noise(*args)
    pieces = _pieces(noise, args)
    got = verify_duality_brownian(
        [("brownian", f, psi) for f, psi in BROWNIAN_CASES], *args)
    assert got == [_column_stack_duality_brownian(f, psi, noise, pieces)
                   for f, psi in BROWNIAN_CASES]


def test_streamed_brownian_duality_matches_column_stack():
    _assert_brownian_matches_column_stack(stream_args(60, 3000, 13, n_blocks=3))


def test_brownian_duality_rejects_a_misshaped_integrand():
    with pytest.raises(ValueError):
        brownian_duality(WienerIntegral(), lambda i, _b: np.ones(99),
                         n_steps=10, n_paths=100, seed=14)


@pytest.mark.parametrize("verifier", ["brownian", "jump"])
def test_misshaped_integrand_raises_from_a_worker(cpus, verifier):
    cpus(3)
    args = dict(n_steps=10, n_paths=100, seed=14, levy=ONE_ATOM, n_blocks=4)
    callers = set()

    def integrand(*args):
        callers.add(threading.current_thread())
        return np.ones(99)

    with pytest.raises(ValueError):
        if verifier == "brownian":
            brownian_duality(WienerIntegral(), integrand, **args)
        else:
            jump_duality(JumpIntegral(), integrand, **args)
    assert callers and threading.main_thread() not in callers


def _duality_results(n_paths, n_blocks):
    """Each verifier's results on its identities, after checking them bit for
    bit against the references on the ``generate_noise`` bundle."""
    brownian = stream_args(50, n_paths, 5, EMPTY, n_blocks)
    _assert_brownian_matches_column_stack(brownian)
    jump = stream_args(50, n_paths, 6, TWO_ATOMS, n_blocks)
    _assert_jump_matches_cached_levels(jump)
    return [verify_duality_brownian([("brownian", f, psi) for f, psi in BROWNIAN_CASES],
                                    *brownian),
            verify_duality_jump([("jump", f, phi) for f in JUMP_CASES for phi in JUMP_PHIS],
                                *jump)]


@pytest.mark.parametrize("n_paths, n_blocks", [(10002, 6), (7, 1)])
def test_duality_does_not_depend_on_cpu_count(cpus, n_paths, n_blocks):
    # 1667-path blocks end off the BLAS vector width; 7 paths in one block
    cpus(1)
    sequential = _duality_results(n_paths, n_blocks)
    cpus(3)
    assert _duality_results(n_paths, n_blocks) == sequential


def test_duality_on_split_blocks_matches_the_references(monkeypatch):
    # a piece buffer of one chunk at 50 steps: every 1667-path block is
    # streamed as a 1024-path piece and a 643-path one, and both verifiers
    # still match their references bit for bit
    monkeypatch.setattr(paths, "_PIECE_BYTES", paths._CHUNK_ROWS * 50 * 8)
    brownian = stream_args(50, 10002, 5, EMPTY, 6)
    assert [p.n_paths for p in _pieces(generate_noise(*brownian), brownian)] == [1024, 643] * 6
    _assert_brownian_matches_column_stack(brownian)
    _assert_jump_matches_cached_levels(stream_args(50, 10002, 6, TWO_ATOMS, 6))


def test_jump_duality_square_case():
    res = jump_duality(JumpIntegral() ** 2, lambda i, q, _c: 1.0,
                       n_steps=100, n_paths=50_000, seed=10, levy=ONE_ATOM)
    assert abs(res.lhs - 2.0) <= 3 * res.se_lhs
    assert abs(res.rhs - 2.0) <= 3 * res.se_rhs


def test_jump_duality_without_atoms_is_rejected():
    with pytest.raises(ValidationError, match="at least one atom"):
        jump_duality(JumpIntegral(), lambda i, q, _c: 1.0, n_steps=10, n_paths=100, seed=11)


def test_jump_duality_isometry_case():
    res = jump_duality(JumpIntegral(), lambda i, q, _c: 1.0,
                       n_steps=100, n_paths=50_000, seed=11, levy=ONE_ATOM)
    assert abs(res.lhs - 2.0) <= 3 * res.se_lhs
    assert abs(res.rhs - 2.0) <= 3 * res.se_rhs + 1e-12


def test_jump_integral_equals_the_compensated_sum():
    # two atoms: the counts as drawn less the deterministic compensator,
    # against the compensated counts.  Relative to the largest value too: a
    # path whose terms cancel to near zero keeps their rounding.
    levy = LevyMeasure.from_atoms([[1.0, 2.0], [-0.5, 0.7]])
    noise = make_noise(n_steps=30, n_paths=2500, seed=15, levy=levy)
    f = JumpIntegral()
    comp = compensated(noise)
    want = comp.sum(axis=(0, 2))
    np.testing.assert_allclose(f.evaluate(noise), want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())

    def phi(i, q, _c):
        return 1.0 + 0.1 * i - 0.2 * q

    f_vals = f.evaluate(noise)
    res = jump_duality(f, phi, n_steps=30, n_paths=2500, seed=15, levy=levy)
    lhs = np.zeros(noise.n_paths)
    for q in range(2):
        for i in range(noise.n_steps):
            lhs += phi(i, q, None) * comp[q, :, i]
    lhs *= f_vals
    assert res.lhs == float(lhs.mean())


def _cached_levels_duality_jump(f, phi, noise, pieces):
    """An unprojected ``verify_duality_jump`` on the cached levels of a
    ``generate_noise`` bundle: ``phi`` reads the cached ``count_levels``, the
    left side the whole ``compensated(noise)``, and the right-hand samples
    are ``sum_{i,q} w_i nu_q (F^{+(i,q)} - F) phi_{i,q}``.  Both sides sum
    node by node, the atoms inside each node, as the verifier does."""
    n_paths = noise.n_paths
    counts, comp = noise.count_levels, compensated(noise)
    f_vals = _per_piece(f.evaluate, pieces)
    w_t = time_quadrature_weights(noise.grid)
    lhs_samples = np.zeros(n_paths)
    rhs_samples = np.zeros(n_paths)
    for i in range(noise.n_steps):
        for q in range(noise.levy.n_atoms):
            phi_i = np.broadcast_to(phi(i, q, counts[:, :, i]), (n_paths,))
            lhs_samples += phi_i * comp[q, :, i]
            d_f = _per_piece(lambda piece: f.evaluate_with_jump(piece, i, q), pieces) - f_vals
            rhs_samples += phi_i * d_f * noise.levy.weights[q] * w_t[i]
    lhs_samples *= f_vals
    return _sample_result("jump", lhs_samples, rhs_samples)


TWO_ATOMS = LevyMeasure.from_atoms([[1.0, 2.0], [-0.5, 0.7]])
JUMP_CASES = [
    JumpIntegral() ** 2,
    JumpIntegral(),
    JumpIntegral() ** 3,
    # a functional of B alone: its jump derivative is zero, and it makes the
    # stream carry the normals
    WienerIntegral() ** 2,
]
JUMP_PHIS = [lambda i, q, c: 1.0 + 0.1 * i - 0.2 * q + 0.05 * c[q], lambda i, q, _c: 1.0]


def _assert_jump_matches_cached_levels(args, cases=JUMP_CASES):
    # every (F, phi) pair in one streamed pass; all four fields of each, the
    # standard errors included, bit for bit
    noise = generate_noise(*args)
    pieces = _pieces(noise, args)
    pairs = [(f, phi) for f in cases for phi in JUMP_PHIS]
    got = verify_duality_jump([("jump", f, phi) for f, phi in pairs], *args)
    assert got == [_cached_levels_duality_jump(f, phi, noise, pieces) for f, phi in pairs]


@pytest.mark.parametrize("f, levy", [
    (JUMP_CASES[0], ONE_ATOM),
    (JUMP_CASES[1], ONE_ATOM),
    (JUMP_CASES[2], TWO_ATOMS),
    (JUMP_CASES[3], ONE_ATOM),
], ids=["jump_square", "jump_isometry", "two_atoms", "mixed"])
def test_streamed_jump_duality_matches_the_engine_on_cached_levels(f, levy):
    _assert_jump_matches_cached_levels(stream_args(40, 3000, 16, levy, n_blocks=3), [f])


@pytest.mark.parametrize("stage, names", [
    ("brownian_duality", ("brownian_square", "brownian_isometry")),
    ("jump_duality", ("jump_square", "jump_isometry")),
])
def test_c7_stages_hold_less_than_half_a_bundle(cpus, stage, names):
    # traced from before the draw, so the noise counts: a whole Brownian
    # bundle's increments at 200 steps x 20k paths are 32 MB, and each stage
    # holds two workers' 2500-path blocks (4 MB each) plus its sample rows
    cpus(2)
    n_paths = 20_000
    getattr(acceptance, stage)(names, 400)  # first-call imports and pools
    tracemalloc.start()
    try:
        getattr(acceptance, stage)(names, n_paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    increments_bytes = 200 * n_paths * 8
    assert peak < increments_bytes / 2


@pytest.mark.parametrize("stage, names", [
    ("brownian_duality", ("brownian_square", "brownian_isometry")),
    ("jump_duality", ("jump_square", "jump_isometry")),
])
def test_c7_stages_form_no_array_of_levels(cpus, stage, names, monkeypatch):
    # one worker, so one pair of block buffers; traced from before the draw,
    # everything the stage holds beyond those buffers counts
    cpus(1)
    buffers = []
    draw_block = paths._draw_block

    def tracked_draw(child, grid, levy, block, segments, width):
        # the segments a block is drawn into are all of its buffers: with at
        # most one atom there are no counts to copy into a piece, and normals
        # that are dropped (a None segment) are no buffer
        buffers.append((grid.n_steps, sum(segment.nbytes for segment in segments
                                          if segment is not None)))
        return draw_block(child, grid, levy, block, segments, width)

    monkeypatch.setattr(paths, "_draw_block", tracked_draw)
    n_paths = 20_000
    tracemalloc.start()
    try:
        getattr(acceptance, stage)(names, n_paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ((n_steps, buffer_bytes),) = set(buffers)
    # one float array of levels, (n_steps + 1, N), is 32 MB (Brownian) or 16 MB (jump)
    levels_bytes = (n_steps + 1) * n_paths * 8
    assert peak - buffer_bytes < levels_bytes / 4


def test_c7_jump_stage_holds_no_block_of_normals(cpus):
    # one worker, traced from before the draw: beyond its piece of counts
    # the stage holds less than one block's normals, which neither of its
    # functionals reads.  At 10k-path blocks a block's normals (8 MB) stand
    # well above what the stage holds besides: one chunk's normals and
    # counts as drawn (1.6 MB) and the sample rows (2.6 MB).
    cpus(1)
    n_paths, n_steps = 80_000, 100
    block = n_paths // 8  # one piece: a block's counts fit the piece buffer
    tracemalloc.start()
    try:
        acceptance.jump_duality(("jump_square", "jump_isometry"), n_paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    counts_bytes = normals_bytes = n_steps * block * 8
    assert peak - counts_bytes < normals_bytes


@pytest.mark.parametrize("f, reads", [
    (Power(JumpIntegral(), 1), False),
    (WienerIntegral(), True),
    (JumpIntegral(), False),
    (Power(JumpIntegral(), 4), False),
    (Power(WienerIntegral(), 1), True),
    (Power(WienerIntegral(), 2), True),
    (Power(JumpIntegral(), 2), False),
    (Power(WienerIntegral(), 3), True),
    (Power(WienerIntegral(), 4), True),
])
def test_reads_brownian_holds_where_a_wiener_integral_is_evaluated(f, reads):
    assert f.reads_brownian is reads


def test_a_functional_that_hides_its_brownian_read_gets_nan(monkeypatch):
    # a wrong property drops the normals F reads: the pieces' NaN increments
    # poison both sides instead of passing unseen
    f = WienerIntegral() ** 2
    args = dict(n_steps=20, n_paths=600, seed=5, levy=ONE_ATOM, n_blocks=2)
    res = jump_duality(f, lambda i, q, _c: 1.0, **args)
    assert np.isfinite([res.lhs, res.rhs, res.se_lhs, res.se_rhs]).all()
    monkeypatch.setattr(WienerIntegral, "reads_brownian", False)
    res = jump_duality(f, lambda i, q, _c: 1.0, **args)
    assert np.isnan([res.lhs, res.rhs, res.se_lhs, res.se_rhs]).all()


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
        proj = engine.project(i, f.d_brownian(noise, i))
        recon += proj * noise.d_brownian[:, i]
    return recon


def test_reconstruction_error_shrinks_with_grid():
    # F = B(T)^2.  With an exact projection E[D_{t_i} F | F_{t_i}] = 2 B(t_i),
    # the gap F - E[F] - sum 2 B(t_i) dB_i is sum (dB_i^2 - dt), whose mean
    # square is 2 dt; any regression error adds to it.  A projection one node
    # late reads about 3x that.
    f = WienerIntegral() ** 2
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
    wiener, jump = WienerIntegral(), JumpIntegral()
    wiener.evaluate(first)
    jump.evaluate(first)
    assert np.array_equal(wiener.evaluate(second), second.d_brownian @ np.ones(20))
    assert np.array_equal(jump.evaluate(second), JumpIntegral().evaluate(second))


@pytest.mark.parametrize("verifier", ["brownian", "jump"])
def test_integral_memo_computes_each_block_once(cpus, verifier):
    # three workers pass their blocks at once; a memo of one slot would be
    # overwritten by the other workers' blocks and recompute the integral
    cpus(3)
    barrier = threading.Barrier(3, timeout=30)
    computed = []

    class Counted(WienerIntegral if verifier == "brownian" else JumpIntegral):
        def _values(self, noise):
            computed.append(noise.n_paths)
            return super()._values(noise)

    def integrand(i, *args):
        if i == 0:
            barrier.wait()  # every worker inside its block before any goes on
        return 1.0

    args = dict(n_steps=30, n_paths=600, seed=18, levy=ONE_ATOM, n_blocks=6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the lock allows
    try:
        if verifier == "brownian":
            got = brownian_duality(Counted() ** 2, integrand, **args)
            want = brownian_duality(WienerIntegral() ** 2, lambda i, b: 1.0, **args)
        else:
            got = jump_duality(Counted() ** 2, integrand, **args)
            want = jump_duality(JumpIntegral() ** 2, lambda i, q, c: 1.0, **args)
    finally:
        sys.setswitchinterval(interval)
    assert computed == [100] * 6
    assert got == want
