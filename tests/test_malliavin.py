import collections
import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import compensated

from volterra_control import acceptance, malliavin, paths
from volterra_control.condexp import CondExpEngine
from volterra_control.malliavin import (
    DualityResult,
    Functional,
    JumpIntegral,
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
# the closed forms of F and its two gradients
# --------------------------------------------------------------------------- #

def closed_forms(f, noise):
    """``(F, D F, F^+ - F)`` of ``f`` on the paths of ``noise``, as a duality
    pass forms them: the values, the Brownian derivative and the jump
    difference, each the same at every node and atom."""
    return tuple(form for (form,) in malliavin._closed_forms([("f", f, None)], noise))


def test_brownian_derivative_of_unit_integrand():
    noise = make_noise()
    assert closed_forms(WienerIntegral(), noise)[1] == 1.0


def test_brownian_derivative_chain_rule_square():
    noise = make_noise()
    value, d_b, d_n = closed_forms(WienerIntegral() ** 2, noise)
    b_t = noise.brownian_levels[:, -1]
    np.testing.assert_array_equal(value, b_t * b_t)
    np.testing.assert_array_equal(d_b, 2.0 * b_t)
    np.testing.assert_array_equal(d_n, 0.0)  # a jump does not move B(T)


def test_brownian_derivative_of_a_first_power_is_the_bases():
    noise = make_noise()
    w = WienerIntegral()
    assert w**1 == w
    assert closed_forms(w**1, noise)[1] == closed_forms(w, noise)[1] == 1.0


def test_power_exponent_above_four_is_rejected():
    with pytest.raises(ValidationError, match="1..4"):
        WienerIntegral() ** 5
    with pytest.raises(ValidationError, match="1..4"):
        (JumpIntegral() ** 2) ** 3  # a power of a power multiplies the exponents


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_power_exponent_must_be_an_int_in_one_to_four(k):
    # int(2.5) is 2: a check that reads it would let B(T)^2.5 build and
    # evaluate to NaN on every path with a negative B(T).  1 * True is the
    # int 1, so ``**`` checks its factor, not only the product.
    with pytest.raises(ValidationError, match="int in 1..4"):
        WienerIntegral() ** k
    with pytest.raises(ValidationError, match="int in 1..4"):
        Functional(jump=False, exponent=k)


def test_jump_derivative_of_unit_mark():
    noise = make_noise(levy=ONE_ATOM)
    _, d_b, d_n = closed_forms(JumpIntegral(), noise)
    assert d_b == 0.0
    assert np.allclose(d_n, 1.0)


def test_jump_derivative_difference_form_square():
    noise = make_noise(levy=ONE_ATOM)
    n_t = closed_forms(JumpIntegral(), noise)[0]
    assert np.allclose(closed_forms(JumpIntegral() ** 2, noise)[2], 2.0 * n_t + 1.0, atol=1e-12)


def test_wiener_integral_is_brownian_terminal():
    # bit for bit: the row sum adds the increments node by node, as the
    # levels are summed
    noise = make_noise()
    np.testing.assert_array_equal(closed_forms(WienerIntegral(), noise)[0],
                                  noise.brownian_levels[:, -1])


@pytest.mark.parametrize("f", [WienerIntegral(), WienerIntegral() ** 2,
                               JumpIntegral(), JumpIntegral() ** 2],
                         ids=["brownian", "brownian_square", "jump", "jump_square"])
def test_closed_forms_do_not_depend_on_how_the_paths_are_split(f):
    # a 10,002-path bundle in six 1,667-path blocks: a BLAS matrix-vector
    # product rounds the last rows of a block off its vector width
    # differently from the same rows inside the whole bundle, a row sum
    # does not
    n_paths, n_blocks = 10_002, 6
    noise = generate_noise(*stream_args(50, n_paths, 3, ONE_ATOM, n_blocks))
    whole = closed_forms(f, noise)
    block = n_paths // n_blocks
    split = [closed_forms(f, dataclasses.replace(
        noise, d_brownian=noise.d_brownian[rows], jump_counts=noise.jump_counts[:, rows]))
        for rows in (slice(b * block, (b + 1) * block) for b in range(n_blocks))]
    for whole_form, *block_forms in zip(whole, *split):
        joined = np.concatenate([np.broadcast_to(form, (block,)) for form in block_forms])
        np.testing.assert_array_equal(joined, np.broadcast_to(whole_form, (n_paths,)))


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


def _piece_sizes(args):
    """The path count of each piece ``stream_noise(*args)`` hands out, in
    path order."""
    rows = []
    paths.stream_noise(*args, lambda r, piece: rows.append(r))
    return [r.stop - r.start for r in sorted(rows, key=lambda r: r.start)]


def _column_stack_duality_brownian(f, psi, noise):
    """An unprojected ``verify_duality_brownian`` on a whole ``generate_noise``
    bundle: every psi value stacked into one ``(N, n)`` matrix, from the
    bundle's cached levels, before either side is formed; the stochastic
    integral and the right-hand samples ``sum_i w_i D_i F psi_i`` are summed
    in plain loops over the steps.  ``F`` and ``D F`` are read on the whole
    bundle, which the verifier only ever sees in pieces."""
    n = noise.n_steps
    levels = noise.brownian_levels
    psi_vals = np.column_stack([np.broadcast_to(psi(i, levels[:, i]), (noise.n_paths,))
                                for i in range(n)])
    integral = np.zeros(noise.n_paths)
    for i in range(n):
        integral += psi_vals[:, i] * noise.d_brownian[:, i]
    f_vals, d_f, _ = closed_forms(f, noise)
    lhs_samples = f_vals * integral
    w = time_quadrature_weights(noise.grid)
    rhs_samples = np.zeros(noise.n_paths)
    for i in range(n):
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
    got = verify_duality_brownian(
        [("brownian", f, psi) for f, psi in BROWNIAN_CASES], *args)
    assert got == [_column_stack_duality_brownian(f, psi, noise) for f, psi in BROWNIAN_CASES]


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
    # 1667-path blocks, off any vector width; 7 paths in one block
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
    assert _piece_sizes(brownian) == [1024, 643] * 6
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
    f_vals = closed_forms(f, noise)[0]
    np.testing.assert_allclose(f_vals, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def phi(i, q, _c):
        return 1.0 + 0.1 * i - 0.2 * q

    res = jump_duality(f, phi, n_steps=30, n_paths=2500, seed=15, levy=levy)
    lhs = np.zeros(noise.n_paths)
    for q in range(2):
        for i in range(noise.n_steps):
            lhs += phi(i, q, None) * comp[q, :, i]
    lhs *= f_vals
    assert res.lhs == float(lhs.mean())


def _cached_levels_duality_jump(f, phi, noise):
    """An unprojected ``verify_duality_jump`` on the cached levels of a whole
    ``generate_noise`` bundle: ``phi`` reads the cached ``count_levels``, the
    left side the whole ``compensated(noise)``, and the right-hand samples
    are ``sum_{i,q} w_i nu_q (F^{+(i,q)} - F) phi_{i,q}``.  Both sides sum
    node by node, the atoms inside each node, as the verifier does."""
    n_paths = noise.n_paths
    counts, comp = noise.count_levels, compensated(noise)
    f_vals, _, d_f = closed_forms(f, noise)
    w_t = time_quadrature_weights(noise.grid)
    lhs_samples = np.zeros(n_paths)
    rhs_samples = np.zeros(n_paths)
    for i in range(noise.n_steps):
        for q in range(noise.levy.n_atoms):
            phi_i = np.broadcast_to(phi(i, q, counts[:, :, i]), (n_paths,))
            lhs_samples += phi_i * comp[q, :, i]
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
    pairs = [(f, phi) for f in cases for phi in JUMP_PHIS]
    got = verify_duality_jump([("jump", f, phi) for f, phi in pairs], *args)
    assert got == [_cached_levels_duality_jump(f, phi, noise) for f, phi in pairs]


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
    (JumpIntegral() ** 1, False),
    (WienerIntegral(), True),
    (JumpIntegral(), False),
    (JumpIntegral() ** 4, False),
    (WienerIntegral() ** 1, True),
    (WienerIntegral() ** 2, True),
    (JumpIntegral() ** 2, False),
    (WienerIntegral() ** 3, True),
    (WienerIntegral() ** 4, True),
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
    monkeypatch.setattr(Functional, "reads_brownian", False)
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
    f_vals, d_f, _ = closed_forms(f, noise)
    engine = _brownian_engine(noise, degree)
    recon = np.full(noise.n_paths, f_vals.mean())
    for i in range(noise.n_steps):
        proj = engine.project(i, d_f)
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
        f_vals = closed_forms(f, noise)[0]
        mse = float(np.mean((clark_ocone_reconstruction(f, noise) - f_vals) ** 2))
        two_dt = 2.0 * noise.grid.dt
        assert abs(mse - two_dt) <= 0.1 * two_dt, (n, mse)


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("verifier", ["brownian", "jump"])
def test_a_pass_computes_each_base_once_per_piece(cpus, monkeypatch, verifier, n_cpus):
    # five identities over both bases: each piece's pass sums B(T) once and
    # Ñ(T) once, however many powers of each it is given
    cpus(n_cpus)
    computed = []
    terminal = malliavin._terminal

    def counted(noise, jump):
        computed.append((noise, jump))  # held, so no two pieces share an id()
        return terminal(noise, jump)

    monkeypatch.setattr(malliavin, "_terminal", counted)
    functionals = [WienerIntegral() ** 2, JumpIntegral(), WienerIntegral(),
                   JumpIntegral() ** 3, WienerIntegral() ** 4]
    args = stream_args(30, 600, 18, ONE_ATOM, n_blocks=6)
    if verifier == "brownian":
        verify_duality_brownian([("b", f, lambda i, b: 1.0) for f in functionals], *args)
    else:
        verify_duality_jump([("j", f, lambda i, q, c: 1.0) for f in functionals], *args)
    assert len({id(noise) for noise, _ in computed}) == len(_piece_sizes(args)) == 6
    # both bases, once in each piece
    assert sorted(collections.Counter((id(noise), jump) for noise, jump in computed).values()) \
        == [1] * 12
