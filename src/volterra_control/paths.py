"""Seeded generation of Brownian increments and compound-Poisson jump marks.

A :class:`NoiseBundle` holds, per path and per step, the Brownian increment
over ``(t_i, t_{i+1}]`` and the number of jumps of each atom landing in that
interval.  Generation is split into blocks with one independent child stream
per block (``numpy.random.SeedSequence.spawn``), so the result is
bit-reproducible for a fixed ``(seed, n_paths, grid, n_blocks)`` regardless
of how the blocks are later consumed.

Every per-path, per-node array of the package has one layout, owned here:
it is stored node-major, one contiguous row of all paths per node, and
handed out as a transposed view with the path-major shape ``(n_paths,
n_nodes)``.  Readers index ``[:, node]`` as before and get a contiguous row.

The blocks are drawn concurrently, one thread per CPU in the process's
affinity mask.  Each thread writes only its own paths, so every value is the
same whatever the CPU count; with one CPU nothing runs off the calling
thread.  The level sums run on the calling thread: a node row is too short
a task to pay for a thread.
:func:`stream_noise` draws the same blocks in the same workers, but hands
each to a consumer as a block-sized bundle instead of storing the whole.

Jump times inside a step are not recorded: left-point stepping only needs the
per-step aggregate counts.
"""

from __future__ import annotations

import os
import queue
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .model import LevyMeasure, TimeGrid, ValidationError

__all__ = [
    "NoiseBundle",
    "generate_noise",
    "stream_noise",
    "save_noise",
    "load_noise",
]

_MAGIC = b"VCNB0001"
# paths per chunk wherever noise is drawn, compensated, saved or loaded a
# chunk at a time
_CHUNK_ROWS = 1024


def _run_tasks(fn: Callable[[int], None], k: int) -> None:
    """Run ``fn(task)`` for ``task in range(k)``, one thread per CPU.

    The tasks must be independent and spend their time in numpy calls that
    release the interpreter lock.  With one CPU in the affinity mask (or one
    task) they run inline; otherwise a worker's exception re-raises here, and
    every thread has finished when this returns.
    """
    workers = min(k, len(os.sched_getaffinity(0)))
    if workers <= 1:
        for task in range(k):
            fn(task)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fn, range(k)))


def _path_chunks(start: int, stop: int) -> list[slice]:
    """Paths ``start .. stop - 1`` in chunks of at most ``_CHUNK_ROWS``."""
    return [slice(lo, min(lo + _CHUNK_ROWS, stop)) for lo in range(start, stop, _CHUNK_ROWS)]


def _node_major(a: np.ndarray) -> np.ndarray:
    """``a`` (shape ``(..., n_paths, n_nodes)``) as a view of node-major storage.

    An array stored that way already is returned as it is; any other is
    copied once into node-major memory.
    """
    if not a.swapaxes(-1, -2).flags.c_contiguous:
        a = np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)
    return a


@dataclass(frozen=True, eq=False)
class NoiseBundle:
    """Per-path Brownian increments and jump counts on a fixed grid.

    Both arrays, and every array derived from them, are stored node-major
    and read through the path-major shapes below (see the module docstring):
    ``d_brownian[:, i]`` and ``jump_counts[q, :, i]`` are contiguous rows.
    Arrays passed in another layout, as ``dataclasses.replace`` may pass
    them, are stored node-major on construction.  The derived arrays are
    cached; treat them as read-only.
    """

    grid: TimeGrid
    levy: LevyMeasure
    seed: int
    n_blocks: int
    d_brownian: np.ndarray  # (n_paths, n_steps), variance dt each
    jump_counts: np.ndarray  # (n_atoms, n_paths, n_steps), int64

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_brownian", _node_major(self.d_brownian))
        object.__setattr__(self, "jump_counts", _node_major(self.jump_counts))

    @property
    def n_paths(self) -> int:
        return self.d_brownian.shape[0]

    @property
    def n_steps(self) -> int:
        return self.d_brownian.shape[1]

    # The levels are summed one node row at a time, in the same order as a
    # cumulative sum; every read and write is a contiguous row.

    @cached_property
    def brownian_levels(self) -> np.ndarray:
        """B(t_i) per path, shape (n_paths, n_steps + 1), B(0) = 0."""
        levels = np.empty((self.n_steps + 1, self.n_paths))
        levels[0] = 0.0
        for i in range(self.n_steps):
            np.add(levels[i], self.d_brownian[:, i], out=levels[i + 1])
        return levels.T

    @cached_property
    def count_levels(self) -> np.ndarray:
        """Cumulative jump counts N_m(t_i), shape (n_atoms, n_paths, n_steps + 1)."""
        levels = np.zeros((self.levy.n_atoms, self.n_steps + 1, self.n_paths))
        for i in range(self.n_steps):
            np.add(levels[:, i], self.jump_counts[:, :, i], out=levels[:, i + 1])
        return levels.transpose(0, 2, 1)

    @cached_property
    def compensated_counts(self) -> np.ndarray:
        """Per-step compensated counts ``count - w_m * dt``, shape (m, n_paths, n_steps)."""
        return self.compensated_rows(slice(None))

    def compensated_rows(self, rows: slice) -> np.ndarray:
        """``compensated_counts[:, rows]``, computed without the whole array.

        Not cached: readers that need one sum over the steps call it one
        chunk of paths at a time.
        """
        comp = self.levy.weights[:, None, None] * self.grid.dt
        counts = self.jump_counts.transpose(0, 2, 1)[:, :, rows]
        return np.subtract(counts, comp, dtype=float).transpose(0, 2, 1)


def _block_streams(n_paths: int, seed: int, n_blocks: int) -> tuple[list, int]:
    """The child stream of each block, and the paths per block."""
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    if n_blocks < 1 or n_paths % n_blocks != 0:
        raise ValidationError(f"n_blocks ({n_blocks}) must divide n_paths ({n_paths})")
    return np.random.SeedSequence(seed).spawn(n_blocks), n_paths // n_blocks


def _draw_block(child: np.random.SeedSequence, grid: TimeGrid, levy: LevyMeasure,
                db: np.ndarray, counts: np.ndarray) -> None:
    """Draw one block's stream into node-major ``db`` ``(n_steps, width)`` and
    ``counts`` ``(n_atoms, n_steps, width)``.

    The normals come first, then each atom's counts; each is drawn a chunk of
    paths at a time and written transposed, and a chunk of rows consumes the
    stream in the same order as one ``(width, n_steps)`` draw.
    """
    rng = np.random.Generator(np.random.PCG64(child))
    n = grid.n_steps
    sqrt_dt = np.sqrt(grid.dt)
    chunks = _path_chunks(0, db.shape[1])
    normals = np.empty((chunks[0].stop, n))  # one chunk's draw, reused
    for rows in chunks:
        chunk = normals[:rows.stop - rows.start]
        rng.standard_normal(out=chunk)
        np.multiply(chunk.T, sqrt_dt, out=db[:, rows])
    for q in range(levy.n_atoms):
        lam = levy.weights[q] * grid.dt
        for rows in chunks:
            counts[q, :, rows] = rng.poisson(lam, size=(rows.stop - rows.start, n)).T


def generate_noise(
    grid: TimeGrid,
    levy: LevyMeasure,
    n_paths: int,
    seed: int,
    n_blocks: int = 8,
) -> NoiseBundle:
    """Draw the Brownian and jump sources for ``n_paths`` paths.

    One child stream per block; within a block the normals are drawn before
    the Poisson counts, so regeneration with identical arguments is
    byte-identical.  The blocks are drawn concurrently, one thread per CPU in
    the affinity mask; each block consumes only its own stream and writes
    only its own paths, so the result does not depend on the CPU count.
    """
    children, block = _block_streams(n_paths, seed, n_blocks)
    n, m = grid.n_steps, levy.n_atoms
    db = np.empty((n, n_paths))
    counts = np.empty((m, n, n_paths), dtype=np.int64)

    def draw(b: int) -> None:
        rows = slice(b * block, (b + 1) * block)
        _draw_block(children[b], grid, levy, db[:, rows], counts[:, :, rows])

    _run_tasks(draw, n_blocks)
    return NoiseBundle(
        grid=grid, levy=levy, seed=int(seed), n_blocks=int(n_blocks),
        d_brownian=db.T, jump_counts=counts.transpose(0, 2, 1),
    )


def stream_noise(
    grid: TimeGrid,
    levy: LevyMeasure,
    n_paths: int,
    seed: int,
    n_blocks: int,
    consume: Callable[[slice, NoiseBundle], None],
) -> None:
    """Hand the bundle ``generate_noise`` draws with the same arguments to
    ``consume`` one block at a time, without forming it.

    ``consume(rows, block)`` gets the block that holds paths ``rows`` of that
    bundle as a bundle of its own, bit for bit the same values.  The blocks
    run in the workers of ``generate_noise``, so ``consume`` is called from
    worker threads, must write only to its own ``rows``, and must not keep
    the block once it returns.  A block carries the stream's ``seed`` and
    ``n_blocks``.  Each block takes a free pair of block buffers and gives
    it back; the call allocates one pair per worker, on the calling thread,
    so no worker thread's malloc arena ever holds a buffer.
    """
    children, block = _block_streams(n_paths, seed, n_blocks)
    n, m = grid.n_steps, levy.n_atoms
    free = queue.SimpleQueue()
    for _ in range(min(n_blocks, len(os.sched_getaffinity(0)))):  # the workers of _run_tasks
        free.put((np.empty((n, block)), np.empty((m, n, block), dtype=np.int64)))

    def draw(b: int) -> None:
        db, counts = free.get()
        try:
            _draw_block(children[b], grid, levy, db, counts)
            consume(slice(b * block, (b + 1) * block), NoiseBundle(
                grid=grid, levy=levy, seed=int(seed), n_blocks=int(n_blocks),
                d_brownian=db.T, jump_counts=counts.transpose(0, 2, 1),
            ))
        finally:
            free.put((db, counts))

    _run_tasks(draw, n_blocks)


# --------------------------------------------------------------------------- #
# Binary dump / restore (regression-test fixture format)
# --------------------------------------------------------------------------- #
# Layout (little-endian): magic, then int64 {n_steps, n_paths, seed, n_blocks,
# n_atoms}, float64 horizon, float64 atom sizes, float64 atom weights, the
# float64 increment matrix, and the int64 jump-count array.  The arrays are
# written path-major, one path after another, and moved a chunk of paths at
# a time between the file and the bundle's node-major storage.

def save_noise(bundle: NoiseBundle, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(
            "<5q", bundle.n_steps, bundle.n_paths, bundle.seed,
            bundle.n_blocks, bundle.levy.n_atoms,
        ))
        fh.write(struct.pack("<d", bundle.grid.horizon))
        fh.write(np.ascontiguousarray(bundle.levy.sizes, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(bundle.levy.weights, dtype="<f8").tobytes())
        for rows in _path_chunks(0, bundle.n_paths):
            fh.write(np.ascontiguousarray(bundle.d_brownian[rows], dtype="<f8").tobytes())
        for counts in bundle.jump_counts:
            for rows in _path_chunks(0, bundle.n_paths):
                fh.write(np.ascontiguousarray(counts[rows], dtype="<i8").tobytes())


def load_noise(path: str) -> NoiseBundle:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValidationError(f"{path}: not a noise bundle file")

        def read(n_bytes: int) -> bytes:
            data = fh.read(n_bytes)
            if len(data) != n_bytes:
                raise ValidationError(f"{path}: truncated noise bundle file")
            return data

        def read_rows(out: np.ndarray, dtype: str) -> None:
            # out is node-major (n_steps, n_paths); the file holds its transpose
            for rows in _path_chunks(0, out.shape[1]):
                width = rows.stop - rows.start
                chunk = np.frombuffer(read(8 * width * n), dtype=dtype)
                out[:, rows] = chunk.reshape(width, n).T

        n, n_paths, seed, n_blocks, m = struct.unpack("<5q", read(40))
        (horizon,) = struct.unpack("<d", read(8))
        sizes = np.frombuffer(read(8 * m), dtype="<f8")
        weights = np.frombuffer(read(8 * m), dtype="<f8")
        db = np.empty((n, n_paths))
        read_rows(db, "<f8")
        counts = np.empty((m, n, n_paths), dtype=np.int64)
        for q in range(m):
            read_rows(counts[q], "<i8")
    grid = TimeGrid(horizon=horizon, n_steps=int(n))
    levy = LevyMeasure(sizes=sizes.copy(), weights=weights.copy()) if m else \
        LevyMeasure(sizes=np.empty(0), weights=np.empty(0))
    return NoiseBundle(
        grid=grid, levy=levy, seed=int(seed), n_blocks=int(n_blocks),
        d_brownian=db.T, jump_counts=counts.transpose(0, 2, 1),
    )
