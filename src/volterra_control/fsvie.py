"""Forward stochastic Volterra simulation, deterministic mean oracle, and
first-variation (pathwise derivative) processes.

There are two stepping engines, and the kernels choose between them:

* the exact engine (``_log_rows``) -- for time-invariant kernels the dynamics reduce
  to a geometric jump-diffusion; each step applies the exact factor
  ``exp((alpha - c_bar) dt - beta^2 dt / 2 + beta dB) *
  prod_m (1 + pi_m)^count * exp(-w_m pi_m dt)`` with the control's exact
  per-step integral ``c_bar dt``.  The drift and both martingale factors are
  exact in law, so Monte Carlo means carry no time-discretization bias.
  The engine is a generator that sums the log-factors into one running row
  of ``log X``: ``simulate_fsvie`` collects its rows, and one-pass readers
  (the control-free utility leg, C8) read them as they pass.  ``X`` is
  exponentiated only when a caller asks for ``ForwardPaths.values`` (or,
  one node at a time, ``.row``).  ``_log_row_means`` gives the exact mean
  of each row, the bias-free reference of the engine's Monte Carlo means.

* the sum (``_simulate_volterra``) -- the general left-point scheme for genuinely two-time
  kernels: every node value is the full triangular sum

      X(t_i) = xi + sum_{j<i} [ (alpha(t_i,t_j) - c_j) X_j dt
                                 + beta(t_i,t_j) X_j dB_j
                                 + X_j * sum_m pi_m(t_i,t_j) (count - w dt) ].

  The sum runs as the sweep of ``_kernels``, handed the kernels in the one
  form they have.  When every kernel is ``a * exp(-r (t - s))`` (``constant``
  included, as rate 0), as its ``(a, r)`` pair, and no node matrix is formed:
  the exact Markovian lift, one running row per distinct rate, in O(n * N).
  With any ``table`` kernel, as node matrices: the blocked triangular sum,
  in O(n^2 * N).

The first variations at ``t_k`` solve the same linear recursion with a
source that is zero before ``t_k``, so each runs only on the sub-triangle of
nodes from ``t_k`` on.  A kernel of ``t - s`` alone is the same kernel there,
so the sub-triangle keeps the pairs and the lift.  ``first_variation`` hands
them out one noise direction at a time and, within it, one node row at a
time, as the sweep finishes each row.  Each sweep runs on the unit source
column ``K(t_i, t_k)``, read from the kernel (``Kernel.column``) and
broadcast over paths: the recursion is linear and ``X(t_k)`` is constant on
each path, so each row is scaled by ``X(t_k)`` into one reused ``(N,)``
buffer, and no per-path source is formed.  On the lift no direction is ever
held whole.

``simulate_fsvie`` runs the exact engine exactly when the scenario is
time-invariant (constant initial level included), and the sum otherwise.

The log utility needs a positive state.  One abort-never-clamp rule,
``_check_floor``, guards it for the exact engine, the control-free utility
leg (``control``) and the utility readers of a sum state (``bsde``): each
hands it the per-node minimum of ``X`` and its path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from ._kernels import volterra_sweep
from .controls import ControlFn
from .model import (ScenarioSpec, TimeGrid, ValidationError, time_quadrature_weights,
                    trapezoid_weights)
from .paths import NoiseBundle

__all__ = [
    "PositivityBreachError",
    "ForwardPaths",
    "simulate_fsvie",
    "forward_mean_oracle",
    "first_variation",
]

POSITIVITY_FLOOR = 1e-12


class PositivityBreachError(RuntimeError):
    """State left the positive domain: ``node`` is the first node whose lowest
    ``X``, ``value``, is at or below the floor, on ``path`` (the lowest on ties)."""

    def __init__(self, path: int, node: int, value: float):
        self.path = int(path)
        self.node = int(node)
        self.value = float(value)
        super().__init__(
            f"state positivity breached at path={path}, node={node}: X={value:.3e}"
        )


@dataclass(frozen=True, eq=False)
class ForwardPaths:
    """Simulated state ``X[p, i]`` on nodes ``t_0 .. t_{last_node}``.

    ``state`` holds ``log X`` when ``log_state`` is set (the exact engine)
    and ``X`` otherwise.  ``values`` is always ``X``: on a log state it is
    exponentiated on first access and then kept.  Both are stored node-major
    and read through the path-major shape, as the noise is (see ``paths``).
    """

    grid: TimeGrid
    state: np.ndarray  # (n_paths, last_node + 1), node-major in memory
    log_state: bool

    @cached_property
    def values(self) -> np.ndarray:
        return np.exp(self.state) if self.log_state else self.state

    def row(self, node: int) -> np.ndarray:
        """``X`` at one node on every path, equal to ``values[:, node]``.

        On a log state this exponentiates one row, so a reader that walks
        the nodes one at a time never forms ``values``.
        """
        row = self.state[:, node]
        return np.exp(row) if self.log_state else row

    @property
    def n_paths(self) -> int:
        return self.state.shape[0]

    @property
    def last_node(self) -> int:
        return self.state.shape[1] - 1


def _check_control_admissible(c_vals: np.ndarray) -> None:
    # the simulator accepts any nonnegative rate; strict positivity is a
    # utility-layer requirement (log consumption)
    if np.any(~np.isfinite(c_vals)) or np.any(c_vals < 0.0):
        raise ValidationError("control must be finite and nonnegative at all left nodes")


def _check_floor(x_min: np.ndarray, low_path: np.ndarray) -> None:
    """The positivity floor: ``x_min[i]`` is the lowest ``X`` at node ``i``
    and ``low_path[i]`` its path.  Raises at the first node at or below
    ``POSITIVITY_FLOOR``; values are never clamped."""
    bad = np.flatnonzero(x_min <= POSITIVITY_FLOOR)
    if bad.size:
        i = bad[0]
        raise PositivityBreachError(low_path[i], i, x_min[i])


def _check_noise_grid(grid: TimeGrid, noise: NoiseBundle) -> None:
    if noise.grid.n_steps != grid.n_steps or abs(noise.grid.horizon - grid.horizon) > 1e-12:
        raise ValidationError("noise grid does not match scenario grid")


def simulate_fsvie(
    scenario: ScenarioSpec,
    noise: NoiseBundle,
    control: ControlFn,
    *,
    through_node: int | None = None,
) -> ForwardPaths:
    """Simulate the controlled cash flow on the scenario grid.

    ``through_node`` limits the output to nodes ``0 .. through_node``; the
    utility evaluators pass ``n - 1`` because the running utility never reads
    the terminal state (and singular consumption rates drive it to zero
    there).  Time-invariant kernels take the exact engine, which aborts on
    any value at or below the positivity floor -- values are never clamped;
    two-time kernels take the triangular sum.
    """
    grid = scenario.grid
    n = grid.n_steps
    last = n if through_node is None else int(through_node)
    if last < 0 or last > n:
        raise ValidationError(f"through_node must be in [0, {n}]")
    _check_noise_grid(grid, noise)

    c_vals = control.values(grid)
    _check_control_admissible(c_vals[:last])

    if scenario.time_invariant:
        log_x = np.empty((last + 1, noise.n_paths))
        for i, row in enumerate(_log_rows(scenario, noise, control.step_integrals(grid), last)):
            log_x[i] = row
        low = log_x.argmin(axis=1)
        _check_floor(np.exp(log_x[np.arange(last + 1), low]), low)
        return ForwardPaths(grid=grid, state=log_x.T, log_state=True)
    x = _simulate_volterra(scenario, noise, c_vals, last)
    return ForwardPaths(grid=grid, state=x, log_state=False)


def _log_rows(
    scenario: ScenarioSpec, noise: NoiseBundle, c_int: np.ndarray, last: int
) -> Iterator[np.ndarray]:
    """``log X(t_i)`` for ``i = 0 .. last`` from the control's step integrals
    ``c_int``, as one running row of all paths: a consumer reads each row
    before asking for the next and never writes to it."""
    if not scenario.time_invariant:
        raise ValidationError("the exact engine needs time-invariant kernels")
    _check_noise_grid(scenario.grid, noise)
    dt, beta, pi = scenario.grid.dt, scenario.beta(0.0, 0.0), scenario.pi_values()
    log_jumps, compensator = np.log1p(pi), float(np.dot(scenario.levy.weights, pi)) * dt
    drift = scenario.alpha(0.0, 0.0) * dt - c_int[:last] - 0.5 * beta * beta * dt
    row = np.full(noise.n_paths, np.log(float(scenario.initial)))
    step = np.empty(noise.n_paths)
    yield row
    for i in range(last):
        np.multiply(beta, noise.d_brownian[:, i], out=step)
        step += drift[i]
        for q, log_jump in enumerate(log_jumps):
            step += log_jump * noise.jump_counts[q, :, i]
        if pi.size:
            step -= compensator
        row += step
        yield row


def _log_row_means(scenario: ScenarioSpec, c_int: np.ndarray, last: int) -> np.ndarray:
    """The exact means ``E[log X(t_i)]``, ``i = 0 .. last``, of the rows
    ``_log_rows`` hands out for the step integrals ``c_int``:

        log xi + i (alpha - beta^2 / 2 + sum_q w_q (log1p pi_q - pi_q)) dt - C_i,

    with the spend ``C_i = sum_{j<i} c_int_j``.  Each step's Brownian factor
    has mean zero and each count mean ``w_q dt``, so this is the grid's own
    reference for the engine's Monte Carlo means, with no discretization gap.
    """
    if not scenario.time_invariant:
        raise ValidationError("the exact engine needs time-invariant kernels")
    dt, beta, pi = scenario.grid.dt, scenario.beta(0.0, 0.0), scenario.pi_values()
    rate = scenario.alpha(0.0, 0.0) - 0.5 * beta * beta + float(
        np.dot(scenario.levy.weights, np.log1p(pi) - pi))
    spent = np.zeros(last + 1)
    np.cumsum(c_int[:last], out=spent[1:])
    return np.log(float(scenario.initial)) + np.arange(last + 1) * (rate * dt) - spent


def _sweep_kernels(scenario: ScenarioSpec, start: int, last: int) -> tuple:
    """The sweep's drift ``alpha - sum_m w_m pi_m``, ``beta`` and the stacked
    ``pi_m`` on nodes ``start .. last``: the node matrices of that triangle,
    or, when every kernel is exponential, their ``(amplitude, rate)`` pairs,
    the same on every triangle (the drift's: alpha's and ``(-w_m a_m, r_m)``
    per atom).  The drift carries the compensator ``-w_m dt`` of ``N~``, so
    the sweep reads the counts as drawn."""
    grid, weights = scenario.grid, scenario.levy.weights
    forms = [k.exponential_form for k in (scenario.alpha, scenario.beta, *scenario.pi_kernels)]
    if None not in forms:
        alpha, beta, *pis = forms
        drift = [alpha, *((-float(w) * a, r) for w, (a, r) in zip(weights, pis))]
        return np.array(drift), np.array(beta), np.array(pis).reshape(-1, 2)
    cut = slice(start, last + 1)
    a_nodes = scenario.alpha.at_nodes(grid)[cut, cut]
    b_nodes = scenario.beta.at_nodes(grid)[cut, cut]
    p_nodes = np.zeros((scenario.n_atoms, last + 1 - start, last + 1 - start))
    for q, ker in enumerate(scenario.pi_kernels):
        p_nodes[q] = ker.at_nodes(grid)[cut, cut]
        a_nodes -= weights[q] * p_nodes[q]
    return a_nodes, b_nodes, p_nodes


def _simulate_volterra(
    scenario: ScenarioSpec, noise: NoiseBundle, c_vals: np.ndarray, last: int
) -> np.ndarray:
    a, b, p = _sweep_kernels(scenario, 0, last)
    source = np.broadcast_to(
        scenario.initial_at_nodes[: last + 1, None], (last + 1, noise.n_paths)
    )
    return volterra_sweep(
        source, a, c_vals[:last], b, noise.d_brownian[:, :last],
        p, noise.jump_counts[:, :, :last], scenario.grid.dt,
    )


def forward_mean_oracle(scenario: ScenarioSpec, control: ControlFn) -> np.ndarray:
    """Deterministic mean curve: the linear Volterra equation

        m(t) = xi(t) + int_0^t (alpha(t, s) - c(s)) m(s) ds

    solved by trapezoidal quadrature (left rectangle on the final interval,
    where the control is not sampled).  The martingale terms do not
    contribute to the mean.  Only a table alpha forms its node matrix.
    """
    grid = scenario.grid
    n, dt = grid.n_steps, grid.dt
    c = control.values(grid)
    xi = scenario.initial_at_nodes
    t, form = grid.nodes, scenario.alpha.exponential_form
    alpha = scenario.alpha.at_nodes(grid) if form is None else None
    m = np.empty(n + 1)
    m[0] = xi[0]
    for i in range(1, n + 1):
        # integrand g_j = (alpha(t_i, t_j) - c_j) m_j on j = 0..i, trapezoid;
        # the final sub-interval uses the left value when c(t_i) is unknown.
        coeff = alpha[i, : i + 1].copy() if form is None else \
            form[0] * np.exp(-form[1] * np.maximum(t[i] - t[: i + 1], 0.0))
        coeff[:i] -= c[:i]
        if i < n:
            coeff[i] -= c[i]
            w = trapezoid_weights(i + 1, dt)
            known = float(np.dot(w[:i], coeff[:i] * m[:i]))
            m[i] = (xi[i] + known) / (1.0 - w[i] * coeff[i])
        else:
            # trapezoid on [0, t_{n-1}], left rectangle on the last step
            m[i] = xi[i] + float(np.dot(time_quadrature_weights(grid), coeff[:i] * m[:i]))
    return m


def first_variation(
    scenario: ScenarioSpec,
    noise: NoiseBundle,
    control: ControlFn,
    fwd: ForwardPaths,
    node: int,
    consume: Callable[[int, int, np.ndarray], None],
    include_diagonal: bool = True,
) -> None:
    """Linearized response of the state to a noise perturbation at ``t_k``,
    handed to ``consume`` one node row at a time.

    Solves the linear two-time recursion obtained by differentiating the
    state equation: the Brownian direction starts from
    ``beta(t_i, t_k) X(t_k)`` and the jump direction of atom ``m`` from
    ``pi_m(t_i, t_k) X(t_k)``; both propagate through the same triangular
    dynamics as the state itself.  Values vanish for ``i < k``.

    ``consume(direction, node, row)`` is called for direction 0, the
    Brownian one, then ``1 + m`` for atom ``m = 0 .. n_atoms - 1``; within a
    direction for ``node = start .. fwd.last_node`` in order, where
    ``start`` is ``k`` with the diagonal and ``k + 1`` without.  ``row`` is
    the ``(n_paths,)`` response at ``node``.  It is one buffer, reused for
    every row of every direction: read it before returning, and keep no
    reference to it.  ``noise`` must be the bundle ``fwd`` was simulated on,
    on the scenario's grid.

    ``include_diagonal`` keeps the left-limit convention (the response at the
    differentiation node itself is ``beta(t_k, t_k) X(t_k)``); with it off
    the result is the literal pathwise derivative of the left-point scheme,
    which is zero at the node.  The two differ by an O(sqrt(dt)) propagated
    kick with zero conditional mean.
    """
    grid = scenario.grid
    n = grid.n_steps
    k = int(node)
    if k < 0 or k >= n:
        raise ValidationError("differentiation node must satisfy 0 <= k < n")
    if fwd.last_node < k:
        raise ValidationError("forward paths do not reach the differentiation node")
    _check_noise_grid(grid, noise)
    if noise.n_paths != fwd.n_paths:
        raise ValidationError(f"noise has {noise.n_paths} paths but the forward paths "
                              f"have {fwd.n_paths}")
    last = fwd.last_node

    # The source, and with it the response, is zero below ``start``: sweep
    # only the sub-triangle of nodes ``start .. last``.
    start = k if include_diagonal else k + 1
    a, b, p = _sweep_kernels(scenario, start, last)
    c_sub = control.values(grid)[start:last]
    db = noise.d_brownian[:, start:last]
    cj = noise.jump_counts[:, :, start:last]
    xk = fwd.row(k)
    scaled = np.empty(fwd.n_paths)

    def scale(i: int, row: np.ndarray) -> None:
        # the sweep reads its row again: scale it into ``scaled``, not in place
        np.multiply(row, xk, out=scaled)
        consume(direction, start + i, scaled)

    for direction, kernel in enumerate([scenario.beta, *scenario.pi_kernels]):
        # linear in the source, and X(t_k) is constant on each path: sweep
        # the kernel's unit source column, then scale each row by X(t_k)
        col = kernel.column(grid, k)[start - k: last + 1 - k]
        source = np.broadcast_to(col[:, None], (col.size, fwd.n_paths))
        volterra_sweep(source, a, c_sub, b, db, p, cj, grid.dt, scale)
