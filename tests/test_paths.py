import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import compensated
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import paths
from volterra_control.model import LevyMeasure, ValidationError, build_time_grid
from volterra_control.paths import (
    _CHUNK_ROWS,
    NoiseBundle,
    generate_noise,
    stream_noise,
)

GRID = build_time_grid(1.0, 100)
SHORT = build_time_grid(1.0, 9)
EMPTY = LevyMeasure.from_atoms([])
ONE_ATOM = LevyMeasure.from_atoms([[-0.1, 2.0]])


def test_regeneration_is_bit_identical():
    a = generate_noise(GRID, ONE_ATOM, n_paths=512, seed=9, n_blocks=4)
    b = generate_noise(GRID, ONE_ATOM, n_paths=512, seed=9, n_blocks=4)
    assert a.d_brownian.tobytes() == b.d_brownian.tobytes()
    assert a.jump_counts.tobytes() == b.jump_counts.tobytes()


def test_draws_match_the_blockwise_recipe():
    # one child stream per block, normals scaled by sqrt(dt) before the counts
    two_atoms = LevyMeasure.from_atoms([[-0.1, 2.0], [0.3, 0.5]])
    noise = generate_noise(GRID, two_atoms, n_paths=60, seed=4, n_blocks=3)
    for b, child in enumerate(np.random.SeedSequence(4).spawn(3)):
        rng = np.random.Generator(np.random.PCG64(child))
        rows = slice(20 * b, 20 * (b + 1))
        db = rng.standard_normal((20, 100)) * math.sqrt(GRID.dt)
        assert np.array_equal(noise.d_brownian[rows], db)
        for q, w in enumerate(two_atoms.weights):
            assert np.array_equal(noise.jump_counts[q, rows], rng.poisson(w * GRID.dt, (20, 100)))


def test_counts_beyond_one_chunk_match_one_draw():
    # 2500-row blocks cross two Poisson chunk boundaries; a scalar rate
    # consumes the stream in the same order as one (block, n_steps) draw,
    # and each atom's counts are drawn whole before the next atom's
    two_atoms = LevyMeasure.from_atoms([[-0.1, 2.0], [0.3, 0.5]])
    noise = generate_noise(GRID, two_atoms, n_paths=5000, seed=11, n_blocks=2)
    for b, child in enumerate(np.random.SeedSequence(11).spawn(2)):
        rng = np.random.Generator(np.random.PCG64(child))
        rows = slice(2500 * b, 2500 * (b + 1))
        assert np.array_equal(noise.d_brownian[rows],
                              rng.standard_normal((2500, 100)) * math.sqrt(GRID.dt))
        for q, w in enumerate(two_atoms.weights):
            assert np.array_equal(noise.jump_counts[q, rows], rng.poisson(w * GRID.dt, (2500, 100)))


def _bundle_bytes(n_paths, n_blocks):
    two_atoms = LevyMeasure.from_atoms([[-0.1, 2.0], [0.3, 0.5]])
    noise = generate_noise(GRID, two_atoms, n_paths=n_paths, seed=17, n_blocks=n_blocks)
    return [a.tobytes() for a in (noise.d_brownian, noise.jump_counts, noise.brownian_levels,
                                  noise.count_levels, compensated(noise))]


@pytest.mark.parametrize("n_paths, n_blocks", [(10002, 6), (7, 1), (7, 7)])
def test_bundle_and_levels_do_not_depend_on_cpu_count(cpus, n_paths, n_blocks):
    # 1667-row blocks cross a Poisson chunk; 7 paths split unevenly over 3
    # CPUs, and 7 one-row blocks are more tasks than CPUs
    cpus(1)
    sequential = _bundle_bytes(n_paths, n_blocks)
    cpus(3)
    assert _bundle_bytes(n_paths, n_blocks) == sequential


TWO_ATOMS = LevyMeasure.from_atoms([[-0.1, 2.0], [0.3, 0.5]])


@pytest.mark.parametrize("n_cpus", [1, 3])
@pytest.mark.parametrize("n_paths, n_blocks", [(10002, 6), (7, 1), (7, 7)])
def test_streamed_blocks_are_the_bundles_column_slices(cpus, monkeypatch, n_cpus, n_paths,
                                                       n_blocks):
    # a piece buffer of one chunk: each 1667-path block goes out as a
    # 1024-path piece and a 643-path one, whichever segment is drawn last
    monkeypatch.setattr(paths, "_PIECE_BYTES", _CHUNK_ROWS * GRID.n_steps * 8)
    width = n_paths // n_blocks
    pieces = [(lo, min(lo + _CHUNK_ROWS, width)) for lo in range(0, width, _CHUNK_ROWS)]
    for levy in (EMPTY, ONE_ATOM, TWO_ATOMS):
        cpus(1)
        noise = generate_noise(GRID, levy, n_paths=n_paths, seed=17, n_blocks=n_blocks)
        cpus(n_cpus)
        got = {}

        def consume(rows, piece):
            assert piece.n_steps == GRID.n_steps
            # node rows are contiguous: views of the buffers, not copies
            assert piece.d_brownian.strides[0] == 8
            assert levy.n_atoms == 0 or piece.jump_counts.strides[1] == 8
            got[rows.start, rows.stop] = (piece.d_brownian.copy(), piece.jump_counts.copy())

        stream_noise(GRID, levy, n_paths, 17, n_blocks, consume)
        # every path once, each block in its chunk-aligned pieces
        assert sorted(got) == [(b * width + lo, b * width + hi)
                               for b in range(n_blocks) for lo, hi in pieces]
        for (start, stop), (d_brownian, jump_counts) in got.items():
            assert np.array_equal(d_brownian, noise.d_brownian[start:stop])
            assert np.array_equal(jump_counts, noise.jump_counts[:, start:stop])


@pytest.mark.parametrize("levy", [EMPTY, ONE_ATOM, TWO_ATOMS], ids=["empty", "one", "two"])
def test_streamed_pieces_without_normals_keep_the_counts(cpus, monkeypatch, levy):
    # the normals are drawn and dropped, so the counts and the pieces are
    # those of the stored stream; each piece's increments are a read-only
    # NaN broadcast, kept as the zero-stride view it is, not copied
    monkeypatch.setattr(paths, "_PIECE_BYTES", _CHUNK_ROWS * GRID.n_steps * 8)
    cpus(2)
    noise = generate_noise(GRID, levy, n_paths=6000, seed=17, n_blocks=2)
    got = {}

    def consume(rows, piece):
        d_b = piece.d_brownian
        assert d_b.shape == (rows.stop - rows.start, GRID.n_steps)
        assert d_b.strides == (0, 0) and not d_b.flags.writeable and np.isnan(d_b).all()
        got[rows.start, rows.stop] = piece.jump_counts.copy()

    stored = []
    stream_noise(GRID, levy, 6000, 17, 2, lambda rows, piece: stored.append(rows.start))
    stream_noise(GRID, levy, 6000, 17, 2, consume, store_brownian=False)
    assert sorted(start for start, _ in got) == sorted(stored)
    for (start, stop), jump_counts in got.items():
        assert np.array_equal(jump_counts, noise.jump_counts[:, start:stop])


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_stream_noise_allocates_its_buffers_once_per_call(cpus, monkeypatch, n_cpus):
    # one set of buffers per worker, allocated before the first block is
    # drawn, and the same sets live at every piece: no block, piece or worker
    # allocates a buffer of its own.  Blocks of four chunks go out in pieces
    # of two: the normals are whole-block where atoms follow them, and so are
    # the counts of every atom but the last.
    n_blocks, width, n = 6, 4 * _CHUNK_ROWS, GRID.n_steps
    monkeypatch.setattr(paths, "_PIECE_BYTES", 2 * _CHUNK_ROWS * n * 8)
    chunk_bytes = _CHUNK_ROWS * n * 8  # below the buffers, as is one chunk's draw
    cpus(n_cpus)
    pairs = min(n_cpus, n_blocks)
    expected = {
        EMPTY: [2 * chunk_bytes],  # the normals, one piece wide
        ONE_ATOM: [2 * chunk_bytes, 4 * chunk_bytes],  # a piece of counts, whole normals
        TWO_ATOMS: [4 * chunk_bytes] * 3,  # whole normals and first counts, two pieces
    }

    def buffers():
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, paths.__file__, domain=np.lib.tracemalloc_domain)])
        return sorted((t.size, t.traceback[0].lineno) for t in snapshot.traces
                      if t.size > chunk_bytes)

    run_tasks = paths._run_tasks

    for levy, sizes in expected.items():
        seen = []

        def run_after_allocation(fn, k):
            seen.append(buffers())
            run_tasks(fn, k)

        monkeypatch.setattr(paths, "_run_tasks", run_after_allocation)
        tracemalloc.start()
        try:
            stream_noise(GRID, levy, n_blocks * width, 17, n_blocks,
                         lambda rows, piece: seen.append(buffers()))
        finally:
            tracemalloc.stop()
        assert [size for size, _ in seen[0]] == sorted(sizes * pairs)
        assert seen == [seen[0]] * (1 + 2 * n_blocks)


def test_stream_noise_buffers_are_never_shared(cpus):
    # more workers than cores, switching often: no two blocks in flight share
    # a buffer, and every block keeps the bundle's values while in use
    n_blocks, width = 24, 50
    noise = generate_noise(SHORT, ONE_ATOM, n_paths=n_blocks * width, seed=3, n_blocks=n_blocks)
    cpus(6)
    lock, in_use, done, errors = threading.Lock(), set(), [], []

    def consume(rows, block):
        buffer = block.d_brownian.__array_interface__["data"][0]
        with lock:
            assert buffer not in in_use
            in_use.add(buffer)
        time.sleep(0.002)
        assert np.array_equal(block.d_brownian, noise.d_brownian[rows])
        assert np.array_equal(block.jump_counts, noise.jump_counts[:, rows])
        with lock:
            in_use.remove(buffer)
            done.append(rows.start)

    def run():
        try:
            stream_noise(SHORT, ONE_ATOM, n_blocks * width, 3, n_blocks, consume)
        except BaseException as exc:  # re-raised on the test's thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    if errors:
        raise errors[0]
    assert sorted(done) == [b * width for b in range(n_blocks)]


def test_levels_are_exact_cumulative_sums():
    two_atoms = LevyMeasure.from_atoms([[-0.1, 2.0], [0.3, 0.5]])
    noise = generate_noise(GRID, two_atoms, n_paths=64, seed=6, n_blocks=2)
    b = np.zeros((64, 101))
    np.cumsum(noise.d_brownian, axis=1, out=b[:, 1:])
    assert np.array_equal(noise.brownian_levels, b)
    counts = np.zeros((2, 64, 101))
    np.cumsum(noise.jump_counts, axis=2, out=counts[:, :, 1:])
    assert np.array_equal(noise.count_levels, counts)
    assert noise.brownian_levels.T.flags.c_contiguous
    assert noise.count_levels.transpose(0, 2, 1).flags.c_contiguous
    assert generate_noise(GRID, EMPTY, 8, 1, 1).count_levels.shape == (0, 8, 101)


def _path_major_draw(grid, levy, n_paths, seed, n_blocks):
    """The block recipe drawn path-major: per block, one ``(block, n_steps)``
    draw of normals, then one per atom of counts."""
    block = n_paths // n_blocks
    db = np.empty((n_paths, grid.n_steps))
    counts = np.empty((levy.n_atoms, n_paths, grid.n_steps), dtype=np.int64)
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        rng = np.random.Generator(np.random.PCG64(child))
        rows = slice(b * block, (b + 1) * block)
        rng.standard_normal(out=db[rows])
        db[rows] *= math.sqrt(grid.dt)
        for q, w in enumerate(levy.weights):
            counts[q, rows] = rng.poisson(w * grid.dt, size=(block, grid.n_steps))
    return db, counts


@settings(max_examples=25, deadline=None)
@given(
    block=st.sampled_from([1, 5, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                           2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 300]),
    n_blocks=st.integers(1, 3),
    n_steps=st.integers(2, 6),
    n_atoms=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_node_major_draw_is_the_path_major_draw(block, n_blocks, n_steps, n_atoms, seed):
    # blocks smaller than, equal to, larger than and not a multiple of a chunk
    grid = build_time_grid(1.0, n_steps)
    levy = LevyMeasure.from_atoms([[-0.1, 2.0], [0.3, 0.5]][:n_atoms])
    noise = generate_noise(grid, levy, block * n_blocks, seed, n_blocks)
    db, counts = _path_major_draw(grid, levy, block * n_blocks, seed, n_blocks)
    assert np.ascontiguousarray(noise.d_brownian).tobytes() == db.tobytes()
    assert np.ascontiguousarray(noise.jump_counts).tobytes() == counts.tobytes()
    assert noise.d_brownian.T.flags.c_contiguous
    assert noise.jump_counts.transpose(0, 2, 1).flags.c_contiguous


def test_path_major_arrays_are_stored_node_major():
    two_atoms = LevyMeasure.from_atoms([[-0.1, 2.0], [0.3, 0.5]])
    noise = generate_noise(GRID, two_atoms, n_paths=40, seed=8, n_blocks=2)
    db, counts = np.ascontiguousarray(noise.d_brownian), np.ascontiguousarray(noise.jump_counts)
    built = NoiseBundle(grid=GRID, levy=two_atoms, d_brownian=db, jump_counts=counts)
    replaced = dataclasses.replace(noise, d_brownian=db)
    for bundle in (built, replaced):
        assert bundle.d_brownian.T.flags.c_contiguous
        assert bundle.jump_counts.transpose(0, 2, 1).flags.c_contiguous
        assert np.array_equal(bundle.d_brownian, noise.d_brownian)
        assert np.array_equal(bundle.jump_counts, noise.jump_counts)
    # a node-major array is kept, not copied
    assert np.shares_memory(dataclasses.replace(noise).d_brownian, noise.d_brownian)


def test_different_blocks_change_layout():
    a = generate_noise(GRID, EMPTY, n_paths=512, seed=9, n_blocks=4)
    b = generate_noise(GRID, EMPTY, n_paths=512, seed=9, n_blocks=8)
    assert a.d_brownian.tobytes() != b.d_brownian.tobytes()


def test_increment_variance_within_sampling_band():
    noise = generate_noise(GRID, EMPTY, n_paths=100_000, seed=42, n_blocks=8)
    dt = GRID.dt
    for i in (0, 37, 99):
        var = noise.d_brownian[:, i].var(ddof=1)
        se = dt * math.sqrt(2.0 / (noise.n_paths - 1))
        assert abs(var - dt) <= 3 * se


def test_total_jump_count_mean():
    noise = generate_noise(GRID, ONE_ATOM, n_paths=50_000, seed=3, n_blocks=8)
    total = noise.jump_counts[0].sum(axis=1)
    se = total.std(ddof=1) / math.sqrt(noise.n_paths)
    assert abs(total.mean() - 2.0) <= 3 * se


def test_blocks_not_dividing_paths_rejected():
    with pytest.raises(ValidationError):
        generate_noise(GRID, EMPTY, n_paths=100, seed=1, n_blocks=7)


def _bundle_with_counts(counts_at_step):
    """Two-step bundle with prescribed jump counts for atom 0."""
    grid = build_time_grid(0.02, 2)
    levy = LevyMeasure.from_atoms([[-0.1, 0.5]])
    counts = np.zeros((1, 1, 2), dtype=np.int64)
    counts[0, 0, 0] = counts_at_step
    return NoiseBundle(grid=grid, levy=levy, d_brownian=np.zeros((1, 2)), jump_counts=counts)


def _mark_sum(bundle, path, step):
    """``sum_m e_m (count_m - w_m dt)`` over one step: the compensated jump
    integral of ``f(e) = e``."""
    return float(bundle.levy.sizes @ compensated(bundle)[:, path, step])


def test_compensated_sum_empty_measure():
    noise = generate_noise(GRID, EMPTY, n_paths=4, seed=1, n_blocks=1)
    assert compensated(noise).shape == (0, 4, GRID.n_steps)
    assert _mark_sum(noise, 0, 0) == 0.0


def test_compensated_sum_compensator_only():
    bundle = _bundle_with_counts(0)
    assert math.isclose(_mark_sum(bundle, 0, 0), 0.0005, rel_tol=1e-12)


def test_compensated_sum_one_jump():
    bundle = _bundle_with_counts(1)
    assert math.isclose(_mark_sum(bundle, 0, 0), -0.0995, rel_tol=1e-12)


def test_compensated_sums_are_centred():
    noise = generate_noise(GRID, ONE_ATOM, n_paths=50_000, seed=5, n_blocks=8)
    comp = compensated(noise)[0]
    step_mean = comp[:, 13].mean()
    se = comp[:, 13].std(ddof=1) / math.sqrt(noise.n_paths)
    assert abs(step_mean) <= 3 * se
    # summed over steps with f = 1: mean 0, variance ~ (total weight) * T
    totals = comp.sum(axis=1)
    se_mean = totals.std(ddof=1) / math.sqrt(noise.n_paths)
    assert abs(totals.mean()) <= 3 * se_mean
    var = totals.var(ddof=1)
    se_var = var * math.sqrt(2.0 / (noise.n_paths - 1))  # rough normal bound
    assert abs(var - 2.0) <= 4 * se_var
