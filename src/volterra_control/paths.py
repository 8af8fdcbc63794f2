"""Seeded generation of Brownian increments and compound-Poisson jump marks.

A :class:`NoiseBundle` holds, per path and per step, the Brownian increment
over ``(t_i, t_{i+1}]`` and the number of jumps of each atom landing in that
interval.  Generation is split into blocks with one independent child stream
per block (``numpy.random.SeedSequence.spawn``), so the result is
bit-reproducible for a fixed ``(seed, n_paths, grid, n_blocks)`` and numpy
version, regardless of how the blocks are later consumed.  A bundle is
regenerated from those arguments, never stored.  numpy does not promise the
same normal and Poisson draws across versions (NEP 19), so across versions
the committed value ledger (``tests/acceptance_values.json``) is the check.

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
them to a consumer in pieces, each a bundle of its own, instead of storing
the whole: a block whose last drawn segment is larger than a few chunks'
worth of buffer is handed out a few chunks of paths at a time, as that
segment is drawn.  A consumer that reads no Brownian increment can have the
normals drawn and dropped, so that no block holds them.

Jump times inside a step are not recorded: left-point stepping only needs the
per-step aggregate counts.
"""

from __future__ import annotations

import os
import queue
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .model import LevyMeasure, TimeGrid, ValidationError

__all__ = [
    "NoiseBundle",
    "generate_noise",
    "stream_noise",
]

# paths per chunk wherever noise is drawn a chunk at a time
_CHUNK_ROWS = 1024
# about the most bytes a piece of ``stream_noise`` draws its last segment into
_PIECE_BYTES = 12 << 20


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

    An array whose node rows are contiguous already is returned as it is (a
    column slice of node-major storage is one), and so is a broadcast along
    the paths, which holds no rows to lay out; any other is copied once into
    node-major memory.
    """
    if a.shape[-2] > 1 and a.strides[-2] not in (0, a.itemsize):
        a = np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)
    return a


@dataclass(frozen=True, eq=False)
class NoiseBundle:
    """Per-path Brownian increments and jump counts on a fixed grid.

    Both arrays, and every array derived from them, are stored node-major
    and read through the path-major shapes below (see the module docstring):
    ``d_brownian[:, i]`` and ``jump_counts[q, :, i]`` are contiguous rows.
    Arrays passed in another layout, as ``dataclasses.replace`` may pass
    them, are stored node-major when the bundle is made.  The levels are
    cached; treat them as read-only.
    """

    grid: TimeGrid
    levy: LevyMeasure
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


def _block_streams(n_paths: int, seed: int, n_blocks: int) -> tuple[list, int]:
    """The child stream of each block, and the paths per block."""
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    if n_blocks < 1 or n_paths % n_blocks != 0:
        raise ValidationError(f"n_blocks ({n_blocks}) must divide n_paths ({n_paths})")
    return np.random.SeedSequence(seed).spawn(n_blocks), n_paths // n_blocks


def _draw_block(child: np.random.SeedSequence, grid: TimeGrid, levy: LevyMeasure, block: int,
                segments: list[np.ndarray | None], width: int) -> Iterator[slice]:
    """Draw one block's stream, ``block`` paths wide, into ``segments``: the
    node-major normals ``(n_steps, block)``, then each atom's counts.

    Every segment but the last is written whole.  The last one -- the
    normals without atoms, else the last atom's counts -- is drawn ``width``
    paths at a time into the leading columns of its array, which need be
    only one piece wide; after each piece the generator yields the block's
    paths that piece holds.  Each segment is drawn a chunk of paths at a
    time and written transposed, and a chunk of rows consumes the stream in
    the same order as one ``(block, n_steps)`` draw, so the values do not
    depend on ``width``.  A normals segment that is ``None`` is still drawn,
    a chunk at a time into one reused chunk buffer, and dropped, so the
    counts are the same.
    """
    rng = np.random.Generator(np.random.PCG64(child))
    sqrt_dt = np.sqrt(grid.dt)
    normals = np.empty((min(block, _CHUNK_ROWS), grid.n_steps))  # one chunk's draw, reused

    def draw(segment: int, out: np.ndarray | None, rows: slice) -> None:
        # segment 0 is the normals, segment q + 1 atom q's counts
        if segment == 0:
            chunk = normals[:rows.stop - rows.start]
            rng.standard_normal(out=chunk)
            if out is not None:
                np.multiply(chunk.T, sqrt_dt, out=out[:, rows])
        else:
            lam = levy.weights[segment - 1] * grid.dt
            out[:, rows] = rng.poisson(lam, size=(rows.stop - rows.start, grid.n_steps)).T

    last = len(segments) - 1
    for segment, out in enumerate(segments[:last]):
        for rows in _path_chunks(0, block):
            draw(segment, out, rows)
    for start in range(0, block, width):
        piece = slice(start, min(start + width, block))
        for rows in _path_chunks(piece.start, piece.stop):
            draw(last, segments[last], slice(rows.start - start, rows.stop - start))
        yield piece


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
        for _ in _draw_block(children[b], grid, levy, block,
                             [db[:, rows], *counts[:, :, rows]], block):
            pass

    _run_tasks(draw, n_blocks)
    return NoiseBundle(grid=grid, levy=levy, d_brownian=db.T,
                       jump_counts=counts.transpose(0, 2, 1))


def _piece_width(block: int, path_bytes: int) -> int:
    """Paths per piece of a ``block``-path block whose last segment takes
    ``path_bytes`` per path: the block split evenly, in whole chunks, into
    as few pieces as keep a piece's buffer within about ``_PIECE_BYTES``."""
    pieces = -(-block * path_bytes // _PIECE_BYTES)
    chunks = -(-block // (pieces * _CHUNK_ROWS))
    return min(block, chunks * _CHUNK_ROWS)


def stream_noise(
    grid: TimeGrid,
    levy: LevyMeasure,
    n_paths: int,
    seed: int,
    n_blocks: int,
    consume: Callable[[slice, NoiseBundle], None],
    store_brownian: bool = True,
) -> None:
    """Hand the bundle ``generate_noise`` draws with the same arguments to
    ``consume`` one piece at a time, without forming it.

    ``consume(rows, piece)`` gets the paths ``rows`` of that bundle as a
    bundle of their own, bit for bit the same values; the pieces cover every
    path once, and each lies inside one block.  A block whose last segment
    (the normals without atoms, else the last atom's counts) fits
    ``_PIECE_BYTES`` is one piece.  A larger one is split evenly into pieces
    of whole chunks, each handed out as soon as its part of the last segment
    is drawn; what the block draws before that segment (the normals, when
    there are atoms, and every other atom's counts) is held for the whole
    block.

    Without ``store_brownian`` the normals are drawn and dropped a chunk at
    a time, so no block holds them and the counts stay the same; each
    piece's ``d_brownian`` is then a read-only NaN broadcast of its shape,
    so a consumer that reads it anyway gets NaN, not a value.

    The pieces run in the workers of ``generate_noise``, so ``consume`` is
    called from worker threads, must write only to its own ``rows``, and
    must not keep the piece once it returns.  Each block takes a free set of
    buffers and gives it back; the call allocates one set per worker, on the
    calling thread, so no worker thread's malloc arena ever holds a buffer.
    """
    children, block = _block_streams(n_paths, seed, n_blocks)
    n, m = grid.n_steps, levy.n_atoms
    width = _piece_width(block, 8 * n)
    free = queue.SimpleQueue()
    for _ in range(min(n_blocks, len(os.sched_getaffinity(0)))):  # the workers of _run_tasks
        # the normals (one piece wide when they are the last segment, none
        # when they are dropped), the counts of every atom but the last, held
        # whole, and a piece's counts, into which the last atom's are drawn
        free.put((np.empty((n, block if m else width)) if store_brownian else None,
                  np.empty((max(m - 1, 0), n, block), dtype=np.int64),
                  np.empty((m, n, width), dtype=np.int64)))

    def draw(b: int) -> None:
        db, head, counts = free.get()
        try:
            segments = [db, *head, counts[m - 1]] if m else [db]
            for piece in _draw_block(children[b], grid, levy, block, segments, width):
                w = piece.stop - piece.start
                if m > 1:
                    counts[:m - 1, :, :w] = head[:, :, piece]
                consume(slice(b * block + piece.start, b * block + piece.stop), NoiseBundle(
                    grid=grid, levy=levy,
                    d_brownian=(db[:, piece if m else slice(w)].T if store_brownian
                                else np.broadcast_to(np.nan, (w, n))),
                    jump_counts=counts[:, :, :w].transpose(0, 2, 1),
                ))
        finally:
            free.put((db, head, counts))

    _run_tasks(draw, n_blocks)
