"""Backward stochastic Volterra solver: freeze, solve a family, iterate.

The unknown is a triple ``(Y, Z, K)`` with ``Y`` on the diagonal nodes and
``Z(t, s)``, ``K(t, s, e)`` on the triangle ``t <= s < T``.  One fixed-point
pass freezes the current triple inside the generator and solves, for every
node ``t_i``, a plain backward SDE on ``[t_i, T]`` with terminal ``zeta(t_i)``
and the frozen-argument generator; the new diagonal and triangle are read off
those solves.  Iteration proceeds under common random numbers (one fixed
noise bundle), which makes the pass map deterministic, and stops when the
exponentially weighted distance between successive triples drops below a
relative tolerance.

Storage is triangular: pair ``(i, j)`` for ``i <= j <= n-1`` lives at flat
index ``i*n - i(i-1)/2 + (j - i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .condexp import CondExpEngine
from .model import LevyMeasure, TimeGrid, ValidationError
from .paths import NoiseBundle

__all__ = [
    "ConvergenceError",
    "BsvieSolution",
    "pair_index",
    "weighted_norm",
    "solve_family_step",
    "solve_bsvie",
    "z_time_derivative_norm",
    "iteration_rows",
    "diagonal_rows",
]

# generator signature: g(t_index, s_index, y, z, k, x) -> per-path array
VolterraDriver = Callable[
    [int, int, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None], np.ndarray
]


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance; carries the log."""

    def __init__(self, message: str, log: list[float]):
        self.log = log
        super().__init__(message)


def pair_index(n_steps: int, i: int, j: int) -> int:
    """Flat index of the triangle pair ``(t_i, s_j)``, ``i <= j <= n-1``."""
    if not 0 <= i <= j < n_steps:
        raise ValidationError(f"pair ({i}, {j}) outside the triangle")
    return i * n_steps - (i * (i - 1)) // 2 + (j - i)


def _n_pairs(n_steps: int) -> int:
    return n_steps * (n_steps + 1) // 2


@dataclass
class BsvieTriple:
    """One iterate: diagonal values plus triangular coefficient arrays."""

    y: np.ndarray  # (n_steps + 1, n_paths)
    z: np.ndarray  # (n_pairs, n_paths)
    k: np.ndarray  # (n_pairs, n_atoms, n_paths)

    @staticmethod
    def zeros(n_steps: int, n_paths: int, n_atoms: int) -> "BsvieTriple":
        return BsvieTriple(
            y=np.zeros((n_steps + 1, n_paths)),
            z=np.zeros((_n_pairs(n_steps), n_paths)),
            k=np.zeros((_n_pairs(n_steps), n_atoms, n_paths)),
        )


@dataclass(frozen=True, eq=False)
class BsvieSolution:
    grid: TimeGrid
    levy: LevyMeasure
    y: np.ndarray  # (n_steps + 1, n_paths), diagonal values
    z: np.ndarray  # (n_pairs, n_paths)
    k: np.ndarray  # (n_pairs, n_atoms, n_paths)
    iteration_log: tuple[float, ...]

    def z_at(self, i: int, j: int) -> np.ndarray:
        return self.z[pair_index(self.grid.n_steps, i, j)]

    def k_at(self, i: int, j: int) -> np.ndarray:
        return self.k[pair_index(self.grid.n_steps, i, j)]


def weighted_norm(
    y: np.ndarray,
    z: np.ndarray,
    k: np.ndarray,
    grid: TimeGrid,
    levy: LevyMeasure,
    beta_w: float,
    base: BsvieTriple | None = None,
) -> float:
    """Exponentially weighted squared norm of a candidate triple.

    Monte Carlo estimate of

        E int_0^T [ e^{b t} Y(t)^2 + int_t^T e^{b s} Z(t,s)^2 ds
                    + int_t^T e^{b s} int K(t,s,e)^2 nu(de) ds ] dt

    with trapezoid quadrature in ``t`` and left-point in ``s``.  With a
    ``base`` triple the norm is that of the difference ``(y, z, k) - base``,
    formed one first-index row at a time (no full-triangle copies).
    """
    n, dt = grid.n_steps, grid.dt
    w_t = np.full(n + 1, dt)
    w_t[0] = w_t[-1] = 0.5 * dt
    e_t = np.exp(beta_w * grid.nodes)
    total = 0.0
    for i in range(n + 1):
        y_i = y[i] if base is None else y[i] - base.y[i]
        inner = float(np.mean(y_i**2)) * e_t[i]
        if i < n:
            # the pairs (i, i..n-1) are contiguous in the flat triangle
            row = slice(pair_index(n, i, i), pair_index(n, i, n - 1) + 1)
            z_i = z[row] if base is None else z[row] - base.z[row]
            sq = np.mean(z_i**2, axis=1)
            if k.shape[1]:
                k_i = k[row] if base is None else k[row] - base.k[row]
                sq += np.mean(k_i**2, axis=2) @ levy.weights
            inner += float(e_t[i:n] @ sq) * dt
        total += w_t[i] * inner
    return total


def solve_family_step(
    zeta: np.ndarray,
    driver: VolterraDriver | None,
    frozen: BsvieTriple,
    noise: NoiseBundle,
    engine: CondExpEngine,
    x_paths: np.ndarray | None = None,
) -> BsvieTriple:
    """One pass: solve the node-indexed family of backward SDEs.

    For each node ``t_i`` the backward SDE on ``[t_i, T]`` has terminal
    ``zeta(t_i)`` and the running-time generator evaluated on the frozen
    triple; the new diagonal value is the solve at ``t_i`` and the triangle
    rows are the extracted coefficients.  The running time ``t_r`` steps
    backward once for all families: every family ``i <= r`` advances
    together, with one projection per node.
    """
    grid = noise.grid
    n, dt = grid.n_steps, grid.dt
    n_paths = noise.n_paths
    m = noise.levy.n_atoms
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape[0] != n + 1:
        raise ValidationError("terminal family needs one per-path value per node")

    out = BsvieTriple.zeros(n, n_paths, m)
    comp = noise.compensated_counts if m else None
    w_dt = noise.levy.weights * dt if m else None
    kinds = 2 + m  # target kinds per family: y, y dB, y (count_q - w_q dt)

    # out.y[i] carries family i's running value until its solve reaches t_i
    out.y[:] = zeta.reshape(n + 1, -1)
    for r in range(n - 1, -1, -1):
        fam = r + 1
        y_run = out.y[:fam]
        # node-major block: rows [kind * fam + i] hold family i's target
        block = np.empty((kinds * fam, n_paths))
        block[:fam] = y_run
        np.multiply(y_run, np.ascontiguousarray(noise.d_brownian[:, r]), out=block[fam:2 * fam])
        for q in range(m):
            np.multiply(y_run, np.ascontiguousarray(comp[q, :, r]),
                        out=block[(2 + q) * fam:(3 + q) * fam])
        proj = engine.project(r, block.T).T
        rows = [pair_index(n, i, r) for i in range(fam)]
        out.z[rows] = proj[fam:2 * fam] / dt
        for q in range(m):
            out.k[rows, q] = proj[(2 + q) * fam:(3 + q) * fam] / w_dt[q]
        if driver is None:
            y_run[:] = proj[:fam]
            continue
        x_r = x_paths[:, r] if x_paths is not None else None
        for i, idx in enumerate(rows):
            g = driver(i, r, frozen.y[r], frozen.z[idx], frozen.k[idx] if m else None, x_r)
            y_run[i] = proj[i] + np.asarray(g, dtype=float) * dt
    return out


def solve_bsvie(
    zeta: np.ndarray,
    driver: VolterraDriver | None,
    noise: NoiseBundle,
    engine: CondExpEngine,
    *,
    beta_w: float = 20.0,
    tol: float = 1e-6,
    max_iter: int = 50,
    x_paths: np.ndarray | None = None,
    start: BsvieTriple | None = None,
) -> BsvieSolution:
    """Fixed-point iteration of the freeze-and-solve map from the zero triple.

    The tolerance is relative to the weighted norm of the first iterate.  The
    noise bundle is fixed across passes (common random numbers), so the map
    is deterministic and the recorded distances contract geometrically until
    they hit the floating-point / regression floor.  Raises
    :class:`ConvergenceError` (carrying the distance log) after ``max_iter``
    passes without convergence.
    """
    grid = noise.grid
    n = grid.n_steps
    m = noise.levy.n_atoms
    current = start if start is not None else BsvieTriple.zeros(n, noise.n_paths, m)
    log: list[float] = []
    scale = None
    for _ in range(max_iter):
        new = solve_family_step(zeta, driver, current, noise, engine, x_paths=x_paths)
        dist = weighted_norm(new.y, new.z, new.k, grid, noise.levy, beta_w, base=current)
        log.append(dist)
        if scale is None:
            scale = max(weighted_norm(new.y, new.z, new.k, grid, noise.levy, beta_w), 1e-300)
        current = new
        if dist <= tol * scale:
            return BsvieSolution(
                grid=grid, levy=noise.levy, y=current.y, z=current.z, k=current.k,
                iteration_log=tuple(log),
            )
    raise ConvergenceError(
        f"no convergence after {max_iter} passes (last distance {log[-1]:.3e}, "
        f"tolerance {tol:.1e} relative)", log,
    )


def z_time_derivative_norm(sol: BsvieSolution) -> float:
    """Finite-difference estimate of ``E int int (dZ/dt)^2 ds dt``.

    First-index differences on the overlapping triangle (pairs with
    ``j >= i + 1``), left-point quadrature in both time variables.  Reported
    as a finiteness diagnostic for the smooth-in-the-first-argument regime.
    """
    n, dt = sol.grid.n_steps, sol.grid.dt
    if n < 2:
        raise ValidationError("need at least two first-index nodes")
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            fd = (sol.z[pair_index(n, i + 1, j)] - sol.z[pair_index(n, i, j)]) / dt
            total += float(np.mean(fd**2)) * dt * dt
    return total


def iteration_rows(sol: BsvieSolution) -> list[dict]:
    return [{"pass": p + 1, "weighted_distance": d} for p, d in enumerate(sol.iteration_log)]


def diagonal_rows(sol: BsvieSolution) -> list[dict]:
    return [
        {"t": float(t), "y_mean": float(sol.y[i].mean())}
        for i, t in enumerate(sol.grid.nodes)
    ]
