"""Backward SDE solver with jumps and the recursive-utility evaluator.

``solve_bsde`` is the regression-based explicit backward Euler scheme: at
each step the value is projected one step back, the martingale coefficients
are extracted as normalized covariances with the noise increments, and the
generator is evaluated at the left time with the projected value,

    z_i   = E_i[ y_{i+1} dB_i ] / dt
    k_i,m = E_i[ y_{i+1} (count_m - w_m dt) ] / (w_m dt)
    y_i   = E_i[ y_{i+1} ] + g(t_i, x_i, E_i[y_{i+1}], z_i, k_i) dt.

The solver follows the generator convention ``Y(t) = E_t[ Y(T) + int_t^T g ]``.

Each step is the engine's backward regression step
(:meth:`CondExpEngine.backward_columns`) on the one value row: ``z_i`` and
``k_i`` come out of the regression on node ``i``'s design as one block of
coefficients as wide as that design (Gobet, Lemor & Warin, Ann. Appl.
Probab. 15, 2005), as every BSVIE column does; a BSDE is the one-row case of
the BSVIE's family recursion.  ``solve_bsde`` keeps the block, evaluates it
on the paths for the generator only, and adds the step's R².

``recursive_utility`` evaluates the log-consumption utility.  Its generator
is linear in the value, so the integrating-factor representation

    Y(0) = E[ int_0^T lambda(s) * log(c(s) X(s)) ds ]

is exact; it is computed with a second-order node quadrature that never
samples the horizon.  ``recursive_utility_bsde`` is an independent O(dt)
cross-check: every projection keeps the intercept, so for this affine
generator ``solve_bsde``'s ``Y(0)`` is the mean of the per-path explicit-Euler
sums, to rounding, and the cross-check steps those sums alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .condexp import CondExpEngine
from .controls import ControlFn, _discount_sign, discount_curve
from .fsvie import ForwardPaths, _check_floor
from .model import ScenarioSpec, ValidationError, mean_se, time_quadrature_weights
from .paths import NoiseBundle

__all__ = [
    "BsdeSolution",
    "solve_bsde",
    "recursive_utility",
    "recursive_utility_bsde",
]

# generator signature: g(step, t, x, y, z, k) -> per-path array; x is the
# engine's forward state row at the step (None when the engine holds no
# state), k is an (n_atoms, n_paths) block or None
Driver = Callable[[int, float, np.ndarray | None, np.ndarray, np.ndarray, np.ndarray | None], np.ndarray]


@dataclass(frozen=True, eq=False)
class BsdeSolution:
    """Backward solution on the grid.

    ``y`` lives on the paths; the solver stores it node-major, so each
    backward step reads and writes contiguous rows, and the field is a
    transposed view with the path-major shape below.  ``z[i]`` and ``k[i]``
    are the coefficients of ``z_i`` and ``k_i`` on the design that
    conditions at node ``i`` (``CondExpEngine.design_at(i)``), as wide as
    that design: ``design.evaluate(z[i])`` gives ``z_i`` on the paths.
    """

    y: np.ndarray  # (n_paths, n_steps + 1), node-major in memory
    z: list[np.ndarray]  # per step i: (p_i,), coefficients of z_i
    k: list[np.ndarray]  # per step i: (n_atoms, p_i), coefficients of k_i
    r_squared: np.ndarray  # (n_steps,) projection diagnostic per step


def solve_bsde(
    terminal: np.ndarray,
    driver: Driver | None,
    noise: NoiseBundle,
    engine: CondExpEngine,
) -> BsdeSolution:
    """Backward recursion from a per-path terminal value.

    ``terminal`` may be a scalar (broadcast) or a per-path array of shape
    ``(1,)`` or ``(N,)``; any other shape raises :class:`ValidationError`.
    A ``None`` driver means a zero generator.  The driver's ``x`` is the
    engine's forward state at the step's node (``engine.x_paths.row(i)``),
    or None when the engine holds no state.  ``engine`` must be built on ``noise``.
    """
    engine.check_noise(noise)
    grid = noise.grid
    n, n_paths = grid.n_steps, noise.n_paths
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape not in ((), (1,), (n_paths,)):
        raise ValidationError(
            f"terminal needs one value or {n_paths} per-path values, got shape {terminal.shape}"
        )
    y = np.empty((n + 1, n_paths))
    y[n] = terminal
    if not np.all(np.isfinite(y[n])):
        raise ValidationError("terminal values must be finite")
    blocks = [None] * n  # per step: [z_i; k_i] on the step's design, (1 + n_atoms, p)
    r2 = np.zeros(n)
    x_row = engine.x_paths.row if engine.x_paths is not None else lambda i: None
    # the running value row, stepped in place; y[i + 1] is its previous value
    for i, design, live, zk in engine.backward_columns(y[n:].copy()):
        y_i, blocks[i] = live[0], zk[:, 0]
        # R² = 1 - var(y_{i+1} - E_i[y_{i+1}]) / var(y_{i+1}), before the generator
        var = float(np.var(y[i + 1]))
        r2[i] = 1.0 if var == 0.0 else 1.0 - float(np.var(y[i + 1] - y_i)) / var
        if driver is not None:
            # z_i and k_i on the paths for this call only; the state row is
            # made in the call, so it does not outlive it
            on_paths = blocks[i] @ design.phi
            g = driver(i, grid.nodes[i], x_row(i), y_i, on_paths[0],
                       on_paths[1:] if len(on_paths) > 1 else None)
            y_i += np.asarray(g, dtype=float) * grid.dt
        y[i] = y_i
    return BsdeSolution(y=y.T, z=[b[0] for b in blocks], k=[b[1:] for b in blocks],
                        r_squared=r2)


# --------------------------------------------------------------------------- #
# Recursive utility
# --------------------------------------------------------------------------- #

def _utility_weights(scenario: ScenarioSpec) -> np.ndarray:
    """Node quadrature weights times the discount, on nodes ``0 .. n-1``."""
    grid = scenario.grid
    lam = discount_curve(scenario.gamma, grid, scenario.convention)[: grid.n_steps]
    return time_quadrature_weights(grid) * lam


def _positive_consumption(scenario: ScenarioSpec, control: ControlFn) -> np.ndarray:
    """The control's node values, which the log utility needs strictly positive."""
    c = control.values(scenario.grid)
    if np.any(c <= 0.0):
        raise ValidationError("consumption must be strictly positive at evaluated nodes")
    return c


def _positive_state(fwd: ForwardPaths, n: int) -> None:
    """Hold the rows ``0 .. n-1`` of a sum state to the positivity floor; the
    exact engine held its log state there as it simulated it."""
    if fwd.last_node < n - 1:
        raise ValidationError("forward paths must reach node n-1 for the utility integral")
    if not fwd.log_state:
        x = fwd.state[:, :n]
        low = x.argmin(axis=0)
        _check_floor(x[low, np.arange(n)], low)


def _utility_legs(
    scenario: ScenarioSpec, control: ControlFn, fwd: ForwardPaths
) -> np.ndarray:
    """Per-path integral ``int_0^T lambda log(c X)`` on the node quadrature.

    On a log state (the exact engine) this is ``log X @ wl + log c @ wl``
    and takes no log.
    """
    n = scenario.grid.n_steps
    c = _positive_consumption(scenario, control)
    _positive_state(fwd, n)
    wl = _utility_weights(scenario)
    if fwd.log_state:
        return fwd.state[:, :n] @ wl + float(np.log(c) @ wl)
    return np.log(c[None, :] * fwd.values[:, :n]) @ wl


def recursive_utility(
    scenario: ScenarioSpec, control: ControlFn, fwd: ForwardPaths
) -> tuple[float, float]:
    """Expected total utility ``Y(0)`` of a consumption rate, with its SE.

    Exact integrating-factor representation of the linear-generator backward
    equation; the state path is read only on ``[0, T)``.
    """
    return mean_se(_utility_legs(scenario, control, fwd))


def recursive_utility_bsde(
    scenario: ScenarioSpec, control: ControlFn, fwd: ForwardPaths, noise: NoiseBundle
) -> tuple[float, float]:
    """Cross-check: the mean and SE of the per-path explicit-Euler sums
    ``S_i = S_{i+1} + (log(c_i X_i) + rate_i S_{i+1}) dt`` from ``S_n = 0``.

    ``noise`` is read only to check that it is ``fwd``'s bundle: its path
    count, on the scenario's grid.  O(dt)-accurate; used to validate the
    closed form, not to report values.
    """
    grid = scenario.grid
    if noise.n_paths != fwd.n_paths or noise.grid != grid:
        raise ValidationError("the noise bundle does not match the forward paths and grid")
    c = _positive_consumption(scenario, control)
    _positive_state(fwd, grid.n_steps)
    rate = _discount_sign(scenario.convention) * scenario.gamma
    s = np.zeros(fwd.n_paths)
    for i in range(grid.n_steps - 1, -1, -1):
        term = np.log(c[i] * fwd.row(i))
        s += (term + rate[i] * s) * grid.dt
    return mean_se(s)
