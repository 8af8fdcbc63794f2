"""Backward stochastic Volterra solver: freeze, solve a family, iterate.

The unknown is a triple ``(Y, Z, K)`` with ``Y`` on the diagonal nodes and
``Z(t, s)``, ``K(t, s, e)`` on the triangle ``t <= s < T``.  One fixed-point
pass freezes the current triple inside the generator and solves, for every
node ``t_i``, a plain backward SDE on ``[t_i, T]`` with terminal ``zeta(t_i)``
and the frozen-argument generator; the new diagonal and triangle are read off
those solves.  Iteration proceeds under common random numbers (one fixed
noise bundle), which makes the pass map deterministic, and stops when the
exponentially weighted distance between successive triples drops below a
relative tolerance.  Without a generator the pass map ignores the frozen
triple, so one pass reaches the fixed point.

A pass runs on the engine's backward regression step
(:meth:`CondExpEngine.backward_columns`): the running time ``t_r`` steps
backward for all families at once, the families ``0..r`` being the live
value rows, as in the BSDE-family view of the equation (Bender & Pokalyuk,
"Discretization of backward stochastic Volterra integral equations", 2013).
A BSDE is the one-row case of the same step.  Each consumer here adds its
generator term to the live rows and takes the finished column ``(0..r, r)``.

Every coefficient ``Z(t_i, s_r)`` and ``K(t_i, s_r, e_q)`` comes out of the
regression at node ``r``, so it is held as its ``p`` coefficients on that
node's conditioning design (the intercept alone where the engine answers with
column means), as in regression-based BSDE schemes (Gobet, Lemor & Warin,
Ann. Appl. Probab. 15, 2005).  An iterate keeps, per running time ``r``, the
step's ``(1 + n_atoms, r + 1, p)`` block for the pairs ``(0..r, r)``: ``Z``
in slot 0, then each atom's ``K``, as wide as node ``r``'s design.  Only
the diagonal ``Y`` lives on the paths.  A pass of :func:`solve_bsvie` runs
in place on one iterate: step ``r`` evaluates the frozen block on the paths
only to call the driver, then replaces it with the new block and records
the per-pair squared change as a Gram form of the coefficient change, from
which the weighted distance is formed.  Only the ``(n+1, N)`` frozen
diagonal is copied.  :func:`family_statistics` runs its own loop on a
driver-free family: after the first step each family is a fitted value on
the previous node's design, so it is carried as those coefficients, and the
terminal is only read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .condexp import CondExpEngine
from .model import LevyMeasure, TimeGrid, ValidationError, trapezoid_weights
from .paths import NoiseBundle

__all__ = [
    "ConvergenceError",
    "BsvieSolution",
    "solve_family_step",
    "solve_bsvie",
    "FamilyStatistics",
    "family_statistics",
]

# generator signature: g(i, r, y, z, k, x), called once per running time r
# for the families i = 0..r together: i is an (r+1, 1) int array, y the
# frozen diagonal value Y(t_r) of shape (N,), z the frozen (r+1, N) column
# evaluated on the paths, k its (n_atoms, r+1, N) jump block (None without
# atoms) and x the engine's forward state row at t_r (None when the engine
# holds no state); the result must broadcast to (r+1, N)
VolterraDriver = Callable[
    [np.ndarray, int, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None], np.ndarray
]


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance; carries the log."""

    def __init__(self, message: str, log: list[float]):
        self.log = log
        super().__init__(message)


@dataclass
class BsvieTriple:
    """One iterate: diagonal values plus, per running time ``r``, the
    coefficient block of the pairs ``(0..r, r)`` on node ``r``'s design.

    ``blocks[r]`` is ``(1 + n_atoms, r + 1, p)``: ``Z`` in slot 0 and atom
    ``q``'s ``K`` in slot ``1 + q``.  The zero iterate holds no blocks.
    """

    y: np.ndarray  # (n_steps + 1, n_paths), diagonal values on the paths
    blocks: list[np.ndarray | None]  # per running time r, None where zero

    @staticmethod
    def zeros(n_steps: int, n_paths: int) -> "BsvieTriple":
        return BsvieTriple(y=np.zeros((n_steps + 1, n_paths)), blocks=[None] * n_steps)


@dataclass(frozen=True, eq=False)
class BsvieSolution:
    grid: TimeGrid
    levy: LevyMeasure
    y: np.ndarray  # (n_steps + 1, n_paths), diagonal values
    z: list[np.ndarray]  # per running time r: (r + 1, p_r), coefficients of Z
    k: list[np.ndarray]  # per running time r: (n_atoms, r + 1, p_r), coefficients of K
    iteration_log: tuple[float, ...]


def _weighted_sum(y_sq: np.ndarray, pair_sq: list, grid: TimeGrid, beta_w: float) -> float:
    """The exponentially weighted norm of per-node and per-pair squares.

    Monte Carlo estimate of

        E int_0^T [ e^{b t} Y(t)^2 + int_t^T e^{b s} Z(t,s)^2 ds
                    + int_t^T e^{b s} int K(t,s,e)^2 nu(de) ds ] dt

    with trapezoid quadrature in ``t`` and left-point in ``s``.  ``y_sq``
    holds ``E[Y^2]`` per node and ``pair_sq[r]`` holds
    ``E[Z^2] + sum_q w_q E[K_q^2]`` for the pairs ``(0..r, r)``; the terms
    are summed first index by first index.
    """
    n, dt = grid.n_steps, grid.dt
    w_t = trapezoid_weights(n + 1, dt)
    # past t = 709 / beta_w a weight is infinite; so is the distance, which
    # solve_bsvie reports as non-convergence
    with np.errstate(over="ignore"):
        e_t = np.exp(beta_w * grid.nodes)
    # first index i reads one contiguous row: a strided read rounds differently
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


def _terminal_family(zeta: np.ndarray, n_steps: int, n_paths: int) -> np.ndarray:
    """``zeta`` as ``(n+1, N)`` or, for a deterministic family, ``(n+1, 1)``."""
    zeta = np.asarray(zeta, dtype=float)
    if (zeta.ndim not in (1, 2) or zeta.shape[0] != n_steps + 1
            or (zeta.ndim == 2 and zeta.shape[1] not in (1, n_paths))):
        raise ValidationError(
            f"terminal family needs one value or one per-path value per node: shape "
            f"({n_steps + 1},), ({n_steps + 1}, 1) or ({n_steps + 1}, {n_paths}), got {zeta.shape}"
        )
    return zeta.reshape(n_steps + 1, -1)


def solve_family_step(
    zeta: np.ndarray,
    driver: VolterraDriver | None,
    frozen: BsvieTriple,
    noise: NoiseBundle,
    engine: CondExpEngine,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One pass, in place: solve the node-indexed family of backward SDEs.

    For each node ``t_i`` the backward SDE on ``[t_i, T]`` has terminal
    ``zeta(t_i)`` and the running-time generator evaluated on the frozen
    triple; the new diagonal value is the solve at ``t_i`` and the blocks
    hold the extracted coefficients.  The running time ``t_r`` steps
    backward once for all families: every family ``i <= r`` advances
    together, with one regression product and one driver call per node.
    The driver receives the frozen block evaluated on the paths and the
    engine's forward state at ``t_r`` (``engine.x_paths.row(r)``, or None
    when the engine holds no state).

    ``frozen`` is overwritten with the new iterate.  Returns the squared
    changes ``(y_sq, pair_sq)``: per node ``E[(Y_new - Y_old)^2]`` and, per
    running time ``r``, the ``(r + 1,)`` pair terms
    ``E[(Z_new - Z_old)^2] + sum_q w_q E[(K_new - K_old)_q^2]``.
    """
    grid = noise.grid
    n, dt = grid.n_steps, grid.dt
    m = noise.levy.n_atoms
    families = np.arange(n)[:, None]
    y_frozen = frozen.y.copy()
    y = frozen.y
    y[:] = _terminal_family(zeta, n, noise.n_paths)
    # the frozen Z and K blocks on the paths, rows [z; k_1; ...; k_m]
    on_paths = np.empty(((1 + m) * n, noise.n_paths)) if driver is not None else None
    y_sq = np.empty(n + 1)
    pair_sq = [None] * n
    for r, design, live, zk in engine.backward_columns(y):
        fam = r + 1
        old = frozen.blocks[r] if frozen.blocks[r] is not None else np.zeros_like(zk)
        if driver is not None:
            # the driver reads the frozen block r before it is replaced
            block = np.matmul(old.reshape((1 + m) * fam, -1), design.phi,
                              out=on_paths[:(1 + m) * fam])
            k_col = block[fam:].reshape(m, fam, -1) if m else None
            x_r = engine.x_paths.row(r) if engine.x_paths is not None else None
            g = driver(families[:fam], r, y_frozen[r], block[:fam], k_col, x_r)
            live += np.asarray(g, dtype=float) * dt
        sq = design.mean_squares(zk - old)
        pair_sq[r] = sq[0] + noise.levy.weights @ sq[1:]
        frozen.blocks[r] = zk
        y_sq[r] = np.mean((y[r] - y_frozen[r]) ** 2)
    y_sq[n] = np.mean((y[n] - y_frozen[n]) ** 2)
    return y_sq, pair_sq


@dataclass(frozen=True, eq=False)
class FamilyStatistics:
    """What the C5 and C10 checks read from a driver-free family solve."""

    grid: TimeGrid
    n_paths: int
    z_mean: list[np.ndarray]  # per running time r: (r+1,) path means of Z(t_0..t_r, s_r)
    zero_row_max: float  # largest |Z(t_0, s_r)| over paths and running times
    z_derivative_norm: float  # C10's first-index derivative norm of Z


def family_statistics(
    zeta: np.ndarray, noise: NoiseBundle, engine: CondExpEngine
) -> FamilyStatistics:
    """Solve the driver-free family as coefficients and reduce each column.

    Without a generator one pass is the solution, and after its first step
    every family is a fitted value ``c . phi`` on the previous node's design.
    Least squares is linear, so each later step regresses that design's
    basis rows and their ``dB_r`` products onto node ``r``'s design and maps
    the families' coefficients through the result (Glasserman & Yu, "regression
    now or regression later?", 2004).  The terminal is read once, never
    written, and the cost is O(n N p^2 + n^2 p^2), not the O(n^2 N p) of
    path-valued rows.  Each pair's ``Z`` mean is ``c . mean(phi)``, the C10
    terms are Gram forms of consecutive coefficient differences, and only
    row 0 is evaluated on the paths, for its maximum.

    ``z_derivative_norm`` is the finite-difference estimate of
    ``E int int (dZ/dt)^2 ds dt``: first-index differences within each
    column (pairs with ``j >= i + 1``), left-point quadrature in both time
    variables, summed over running times ``1..n-1`` in increasing order.
    """
    grid = noise.grid
    n, dt = grid.n_steps, grid.dt
    z_mean = [None] * n
    terms = np.empty(n)
    zero_row = 0.0
    y = _terminal_family(zeta, n, noise.n_paths)
    # contiguous rows regress bit for bit alike; C-contiguous input is not copied
    rows = np.ascontiguousarray(np.broadcast_to(y[:n], (n, noise.n_paths)))
    for r in range(n - 1, -1, -1):
        design = engine.design_at(r)
        step = design.product_coefficients(rows, [noise.d_brownian[:, r]])
        # after the terminal step the rows are the last basis: map the families through it
        coef = step if r == n - 1 else coef[:r + 1] @ step
        rows, z, coef = design.phi, coef[1] / dt, coef[0]
        z_mean[r] = z @ design.phi.mean(axis=1)
        zero_row = np.maximum(zero_row, np.max(np.abs(z[0] @ design.phi)))  # keeps a NaN
        # consecutive rows of column r are the pairs (i, r) and (i + 1, r)
        terms[r] = float(design.mean_squares(np.diff(z, axis=0) / dt).sum()) * dt * dt
    total = 0.0
    for term in terms[1:]:
        total += float(term)
    return FamilyStatistics(grid=grid, n_paths=noise.n_paths, z_mean=z_mean,
                            zero_row_max=float(zero_row), z_derivative_norm=total)


def solve_bsvie(
    zeta: np.ndarray,
    driver: VolterraDriver | None,
    noise: NoiseBundle,
    engine: CondExpEngine,
    *,
    beta_w: float = 20.0,
    tol: float = 1e-6,
    max_iter: int = 50,
) -> BsvieSolution:
    """Fixed-point iteration of the freeze-and-solve map from the zero triple.

    The tolerance is relative to the weighted norm of the first iterate,
    which is the first pass's distance from the zero triple.  The
    noise bundle is fixed across passes (common random numbers), so the map
    is deterministic and the recorded distances contract geometrically until
    they hit the floating-point / regression floor.  Without a generator the
    map is constant: the solve stops after one pass and logs a second
    distance of exactly zero.  Raises :class:`ConvergenceError` (carrying the distance log)
    after ``max_iter`` passes without convergence or at a distance that is
    not finite (``exp(beta_w t)`` overflows past ``t = 709 / beta_w``), and
    :class:`ValidationError` when ``max_iter < 1``.
    """
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    grid = noise.grid
    n = grid.n_steps
    current = BsvieTriple.zeros(n, noise.n_paths)
    log: list[float] = []
    for _ in range(max_iter):
        squares = solve_family_step(zeta, driver, current, noise, engine)
        log.append(_weighted_sum(*squares, grid, beta_w))
        if driver is None:
            log.append(0.0)
            break
        if not np.isfinite(log[-1]):
            raise ConvergenceError(f"weighted distance {log[-1]} after pass {len(log)} is not "
                                   f"finite (beta_w {beta_w:g}, horizon {grid.horizon:g})", log)
        if log[-1] <= tol * max(log[0], 1e-300):
            break
    else:
        raise ConvergenceError(
            f"no convergence after {max_iter} passes (last distance {log[-1]:.3e}, "
            f"tolerance {tol:.1e} relative)", log,
        )
    return BsvieSolution(
        grid=grid, levy=noise.levy, y=current.y, z=[b[0] for b in current.blocks],
        k=[b[1:] for b in current.blocks], iteration_log=tuple(log),
    )

