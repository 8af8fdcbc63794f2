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
``k_i`` come out of the regression on node ``i``'s design and are held as
their ``p`` coefficients on it (Gobet, Lemor & Warin, Ann. Appl. Probab. 15,
2005), as the BSVIE triangle is; a BSDE is the one-row case of the BSVIE's
family recursion.  This module adds the generator (``z_i`` and ``k_i`` are
evaluated on the paths for its call and dropped) and the step's R².

The recursion serves two consumers.  ``solve_bsde`` collects the steps into
a :class:`BsdeSolution`; the utility cross-check (``recursive_utility_bsde``)
keeps only the last row, ``Y(0)`` on the paths, so it holds one value row
where the collector holds ``n + 1``.

``recursive_utility`` evaluates the log-consumption utility.  Its generator
is linear in the value, so the integrating-factor representation

    Y(0) = E[ int_0^T lambda(s) * log(c(s) X(s)) ds ]

is exact; it is computed with a second-order node quadrature that never
samples the horizon.  The generic explicit-Euler solve is kept as an
independent cross-check (``recursive_utility_bsde``), accurate to O(dt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

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
    transposed view with the path-major shape below.  ``z[i]`` and
    ``k[i, q]`` are the coefficients of ``z_i`` and ``k_i,q`` on the design
    that conditions at node ``i`` (``CondExpEngine.design_at(i)``), as wide
    as the engine's widest design (``CondExpEngine.n_basis``); a narrower
    design (the intercept) uses the leading entries and leaves the rest
    zero.  ``design.evaluate(z[i][:p])`` gives ``z_i`` on the paths.
    """

    y: np.ndarray  # (n_paths, n_steps + 1), node-major in memory
    z: np.ndarray  # (n_steps, n_basis), coefficients of z_i
    k: np.ndarray  # (n_steps, n_atoms, n_basis), coefficients of k_i
    r_squared: np.ndarray  # (n_steps,) projection diagnostic per step


def _backward_steps(
    terminal: np.ndarray,
    driver: Driver | None,
    noise: NoiseBundle,
    engine: CondExpEngine,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, float]]:
    """The backward recursion from the terminal row, one step at a time.

    Yields ``(i, y_i, z_i, k_i, r2_i)`` for ``i = n-1`` down to 0: the value
    row on the paths, the coefficients ``(p,)`` of ``z_i`` and ``(m, p)`` of
    ``k_i`` on node ``i``'s design, and the step's projection R²,
    ``1 - var(y_{i+1} - E_i[y_{i+1}]) / var(y_{i+1})``.  Only the running
    row, a copy of the previous one and the step's design are held.  ``y_i``
    is the next step's running row: a consumer reads it and never writes to it.
    """
    grid = noise.grid
    x_row = engine.x_paths.row if engine.x_paths is not None else lambda i: None
    y = np.array(terminal, dtype=float)[None]
    y_next = y[0].copy()
    for i, design, live, z, k in engine.backward_columns(y):
        y_i = live[0]
        var = float(np.var(y_next))
        r2 = 1.0 if var == 0.0 else 1.0 - float(np.var(y_next - y_i)) / var
        if driver is not None:
            # z_i and k_i on the paths for this call only: rows [z; k_1; ...]
            zk = np.concatenate([z, k[:, 0]]) @ design.phi
            # the state row is made in the call, so it does not outlive it
            g = driver(i, grid.nodes[i], x_row(i), y_i, zk[0], zk[1:] if len(k) else None)
            y_i += np.asarray(g, dtype=float) * grid.dt
        yield i, y_i, z[0], k[:, 0], r2
        y_next[...] = y_i


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
    or None when the engine holds no state.
    """
    n = noise.grid.n_steps
    n_paths = noise.n_paths
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape not in ((), (1,), (n_paths,)):
        raise ValidationError(
            f"terminal needs one value or {n_paths} per-path values, got shape {terminal.shape}"
        )
    y = np.empty((n + 1, n_paths))
    y[n] = terminal
    if not np.all(np.isfinite(y[n])):
        raise ValidationError("terminal values must be finite")
    z = np.zeros((n, engine.n_basis))
    k = np.zeros((n, noise.levy.n_atoms, engine.n_basis))
    r2 = np.zeros(n)
    for i, y_i, z_i, k_i, r2_i in _backward_steps(y[n], driver, noise, engine):
        p = z_i.shape[0]
        y[i], r2[i] = y_i, r2_i
        z[i, :p] = z_i
        k[i, :, :p] = k_i
    return BsdeSolution(y=y.T, z=z, k=k, r_squared=r2)


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
    scenario: ScenarioSpec,
    control: ControlFn,
    fwd: ForwardPaths,
    noise: NoiseBundle,
) -> tuple[float, float]:
    """Cross-check: the same utility through the generic explicit-Euler solver.

    O(dt)-accurate; used to validate the closed form, not to report values.
    """
    c = _positive_consumption(scenario, control)
    _positive_state(fwd, scenario.grid.n_steps)
    rate = _discount_sign(scenario.convention) * scenario.gamma

    def gen(i, t, x_i, y, z, k):
        return np.log(c[i] * x_i) + rate[i] * y

    # one projection per node: a cached design would never be read again
    engine = CondExpEngine(scenario.filtration, scenario.regression, noise, x_paths=fwd,
                           cache_designs=False)
    # only Y(0) is read: keep the last value row, not the (n + 1, N) array
    for _, y, _, _, _ in _backward_steps(np.zeros(noise.n_paths), gen, noise, engine):
        pass
    return mean_se(y)
