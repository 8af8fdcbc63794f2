"""Backward SDE solver with jumps and the recursive-utility evaluator.

``solve_bsde`` is the regression-based explicit backward Euler scheme: at
each step the value is projected one step back, the martingale coefficients
are extracted as normalized covariances with the noise increments, and the
generator is evaluated at the left time with the projected value,

    z_i   = E_i[ y_{i+1} dB_i ] / dt
    k_i,m = E_i[ y_{i+1} (count_m - w_m dt) ] / (w_m dt)
    y_i   = E_i[ y_{i+1} ] + g(t_i, x_i, E_i[y_{i+1}], z_i, k_i) dt.

The solver follows the generator convention ``Y(t) = E_t[ Y(T) + int_t^T g ]``.

``recursive_utility`` evaluates the log-consumption utility.  Its generator
is linear in the value, so the integrating-factor representation

    Y(0) = E[ int_0^T lambda(s) * log(c(s) X(s)) ds ]

is exact; it is computed with a second-order node quadrature that never
samples the horizon.  The generic explicit-Euler solve is kept as an
independent cross-check (``recursive_utility_bsde``), accurate to O(dt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .condexp import CondExpEngine
from .controls import ControlFn, discount_curve
from .fsvie import ForwardPaths
from .model import ScenarioSpec, ValidationError, time_quadrature_weights
from .paths import NoiseBundle

__all__ = [
    "BsdeSolution",
    "solve_bsde",
    "recursive_utility",
    "recursive_utility_bsde",
]

# generator signature: g(step, t, x, y, z, k) -> per-path array; x is None
# when no forward state is attached, k is an (n_atoms, n_paths) block or None
Driver = Callable[[int, float, np.ndarray | None, np.ndarray, np.ndarray, np.ndarray | None], np.ndarray]


@dataclass(frozen=True, eq=False)
class BsdeSolution:
    """Backward solution arrays on the grid.

    The solver stores ``y``, ``z`` and ``k`` node-major, so each backward
    step reads and writes contiguous rows; the fields are transposed views
    with the path-major shapes below.
    """

    t_nodes: np.ndarray
    y: np.ndarray  # (n_paths, n_steps + 1)
    z: np.ndarray  # (n_paths, n_steps)
    k: np.ndarray  # (n_atoms, n_paths, n_steps)
    r_squared: np.ndarray  # (n_steps,) projection diagnostic per step

    @property
    def y0(self) -> float:
        return float(self.y[:, 0].mean())

    @property
    def y0_se(self) -> float:
        n = self.y.shape[0]
        return float(self.y[:, 0].std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def solve_bsde(
    terminal: np.ndarray,
    driver: Driver | None,
    noise: NoiseBundle,
    engine: CondExpEngine,
    x_paths: np.ndarray | None = None,
) -> BsdeSolution:
    """Backward recursion from a per-path terminal value.

    ``terminal`` may be a scalar (broadcast) or a per-path array.  A ``None``
    driver means a zero generator.
    """
    grid = noise.grid
    n, dt = grid.n_steps, grid.dt
    n_paths = noise.n_paths
    m = noise.levy.n_atoms
    terminal = np.broadcast_to(np.asarray(terminal, dtype=float), (n_paths,)).copy()
    if not np.all(np.isfinite(terminal)):
        raise ValidationError("terminal values must be finite")

    y = np.empty((n + 1, n_paths))
    z = np.zeros((n, n_paths))
    k = np.zeros((m, n, n_paths))
    r2 = np.zeros(n)
    y[n] = terminal
    w_dt = noise.levy.weights * dt if m else None
    # one projection per step: columns y, y dB and y (count_q - w_q dt); each
    # step compensates its own counts, so no float copy of all counts is made
    targets = np.empty((n_paths, 2 + m), order="F")

    for i in range(n - 1, -1, -1):
        y_next = y[i + 1]
        targets[:, 0] = y_next
        np.multiply(y_next, noise.d_brownian[:, i], out=targets[:, 1])
        for q in range(m):
            np.subtract(noise.jump_counts[q, :, i], w_dt[q], out=targets[:, 2 + q])
            targets[:, 2 + q] *= y_next
        proj = engine.project(i, targets)
        y_proj = proj[:, 0]
        z[i] = proj[:, 1] / dt
        for q in range(m):
            k[q, i] = proj[:, 2 + q] / w_dt[q]
        if driver is not None:
            x_i = x_paths[:, i] if x_paths is not None else None
            g = driver(i, grid.nodes[i], x_i, y_proj, z[i], k[:, i] if m else None)
            y[i] = y_proj + np.asarray(g, dtype=float) * dt
        else:
            y[i] = y_proj
        var = float(np.var(y_next))
        r2[i] = 1.0 if var == 0.0 else 1.0 - float(np.var(y_next - y_proj)) / var
    return BsdeSolution(t_nodes=grid.nodes.copy(), y=y.T, z=z.T, k=k.transpose(0, 2, 1),
                        r_squared=r2)


# --------------------------------------------------------------------------- #
# Recursive utility
# --------------------------------------------------------------------------- #

def _utility_legs(
    scenario: ScenarioSpec, control: ControlFn, fwd: ForwardPaths
) -> np.ndarray:
    """Per-path integral ``int_0^T lambda log(c X)`` on the node quadrature.

    On a log state (the exact engine, whose simulation already checked the
    positivity floor) this is ``log X @ wl + log c @ wl`` and takes no log.
    """
    grid = scenario.grid
    n = grid.n_steps
    if fwd.last_node < n - 1:
        raise ValidationError("forward paths must reach node n-1 for the utility integral")
    c = control.values(grid)
    if np.any(c <= 0.0):
        raise ValidationError("consumption must be strictly positive at evaluated nodes")
    lam = discount_curve(scenario.gamma, grid, scenario.convention)[:n]
    wl = time_quadrature_weights(grid) * lam
    if fwd.log_state:
        return fwd.state[:, :n] @ wl + float(np.log(c) @ wl)
    x = fwd.values[:, :n]
    if np.any(x <= 0.0):
        raise ValidationError("utility requires strictly positive state paths")
    return np.log(c[None, :] * x) @ wl


def recursive_utility(
    scenario: ScenarioSpec, control: ControlFn, fwd: ForwardPaths
) -> tuple[float, float]:
    """Expected total utility ``Y(0)`` of a consumption rate, with its SE.

    Exact integrating-factor representation of the linear-generator backward
    equation; the state path is read only on ``[0, T)``.
    """
    legs = _utility_legs(scenario, control, fwd)
    n = legs.shape[0]
    se = float(legs.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(legs.mean()), se


def recursive_utility_bsde(
    scenario: ScenarioSpec,
    control: ControlFn,
    fwd: ForwardPaths,
    noise: NoiseBundle,
) -> tuple[float, float]:
    """Cross-check: the same utility through the generic explicit-Euler solver.

    O(dt)-accurate; used to validate the closed form, not to report values.
    """
    grid = scenario.grid
    n = grid.n_steps
    c = control.values(grid)
    gamma = scenario.gamma
    sign = -1.0 if scenario.convention == "discounting" else 1.0
    if fwd.last_node < n - 1:
        raise ValidationError("forward paths must reach node n-1")
    x = fwd.values

    def gen(i, t, x_i, y, z, k):
        consumption = c[i] * x[:, i]
        if np.any(consumption <= 0.0):
            raise ValidationError("nonpositive consumption value inside generator")
        return np.log(consumption) + sign * gamma[i] * y

    # one projection per node: a cached design would never be read again
    engine = CondExpEngine(scenario.filtration, scenario.regression, noise, x_paths=x,
                           cache_designs=False)
    sol = solve_bsde(np.zeros(noise.n_paths), gen, noise, engine)
    return sol.y0, sol.y0_se
