"""Forward stochastic Volterra simulation, deterministic mean oracle, and
first-variation (pathwise derivative) processes.

Two stepping engines are available:

* ``multiplicative_exact`` -- for time-invariant kernels the dynamics reduce
  to a geometric jump-diffusion; each step applies the exact factor
  ``exp((alpha - c_bar) dt - beta^2 dt / 2 + beta dB) *
  prod_m (1 + pi_m)^count * exp(-w_m pi_m dt)`` with the control's exact
  per-step integral ``c_bar dt``.  The drift and both martingale factors are
  exact in law, so Monte Carlo means carry no time-discretization bias.
  The engine sums the log-factors and keeps ``log X``: the utility reads it
  directly, the positivity floor is checked on it, and ``X`` itself is
  exponentiated only when a caller asks for ``ForwardPaths.values``.

* ``volterra_sum`` -- the general left-point scheme for genuinely two-time
  kernels: every node value is the full triangular sum

      X(t_i) = xi + sum_{j<i} [ (alpha(t_i,t_j) - c_j) X_j dt
                                 + beta(t_i,t_j) X_j dB_j
                                 + X_j * sum_m pi_m(t_i,t_j) (count - w dt) ].

  The sum runs as the blocked triangular sweep of ``_kernels``.

The first variations at ``t_k`` solve the same linear recursion with a
source that is zero before ``t_k``, so each runs only on the sub-triangle of
nodes from ``t_k`` on.

``scheme="auto"`` (default) picks the exact engine whenever the scenario is
time-invariant.  Positivity of the state is guarded with an abort-never-clamp
floor when the scenario is of the multiplicative class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import volterra_sweep
from .controls import ControlFn
from .model import ScenarioSpec, TimeGrid, ValidationError
from .paths import NoiseBundle

__all__ = [
    "PositivityBreachError",
    "ForwardPaths",
    "FirstVariation",
    "simulate_fsvie",
    "forward_mean_oracle",
    "first_variation",
    "mean_quantile_rows",
]

POSITIVITY_FLOOR = 1e-12


class PositivityBreachError(RuntimeError):
    """State left the positive domain; reports the first offending (path, node)."""

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
    exponentiated on first access and then kept.
    """

    grid: TimeGrid
    state: np.ndarray  # (n_paths, last_node + 1)
    log_state: bool
    positive_state: bool
    scheme: str

    @cached_property
    def values(self) -> np.ndarray:
        return np.exp(self.state) if self.log_state else self.state

    @property
    def n_paths(self) -> int:
        return self.state.shape[0]

    @property
    def last_node(self) -> int:
        return self.state.shape[1] - 1


@dataclass(frozen=True, eq=False)
class FirstVariation:
    """Pathwise derivatives of the state with respect to the noise at ``t_k``.

    ``brownian[p, i]`` approximates the derivative of ``X(t_i)`` with respect
    to a Brownian perturbation at ``t_k``; ``jump[m, p, i]`` the response to
    one extra jump of atom ``m`` at ``t_k``.  Both vanish for ``i < k``.
    """

    grid: TimeGrid
    node: int
    brownian: np.ndarray  # (n_paths, n_nodes)
    jump: np.ndarray  # (n_atoms, n_paths, n_nodes)


def _check_control_admissible(c_vals: np.ndarray) -> None:
    # the simulator accepts any nonnegative rate; strict positivity is a
    # utility-layer requirement (log consumption)
    if np.any(~np.isfinite(c_vals)) or np.any(c_vals < 0.0):
        raise ValidationError("control must be finite and nonnegative at all left nodes")


def _check_positive(x: np.ndarray, floor: float) -> None:
    bad = x <= floor
    if bad.any():
        p, i = np.argwhere(bad)[0]
        raise PositivityBreachError(p, i, x[p, i])


def _check_log_positive(log_x: np.ndarray, floor: float) -> None:
    bad = log_x <= np.log(floor)
    if bad.any():
        p, i = np.argwhere(bad)[0]
        raise PositivityBreachError(p, i, np.exp(log_x[p, i]))


def simulate_fsvie(
    scenario: ScenarioSpec,
    noise: NoiseBundle,
    control: ControlFn,
    *,
    through_node: int | None = None,
    scheme: str = "auto",
    positivity_floor: float = POSITIVITY_FLOOR,
) -> ForwardPaths:
    """Simulate the controlled cash flow on the scenario grid.

    ``through_node`` limits the output to nodes ``0 .. through_node``; the
    utility evaluators pass ``n - 1`` because the running utility never reads
    the terminal state (and singular consumption rates drive it to zero
    there).  On any non-positive value in the multiplicative class the
    simulation aborts -- values are never clamped.
    """
    grid = scenario.grid
    n = grid.n_steps
    last = n if through_node is None else int(through_node)
    if last < 0 or last > n:
        raise ValidationError(f"through_node must be in [0, {n}]")
    if noise.grid.n_steps != n or abs(noise.grid.horizon - grid.horizon) > 1e-12:
        raise ValidationError("noise grid does not match scenario grid")

    c_vals = control.values(grid)
    _check_control_admissible(c_vals[:last])

    if scheme == "auto":
        scheme = "multiplicative_exact" if scenario.time_invariant else "volterra_sum"
    if scheme == "multiplicative_exact":
        if not scenario.time_invariant:
            raise ValidationError("multiplicative_exact requires time-invariant kernels")
        log_x = _simulate_multiplicative(scenario, noise, control, last)
        _check_log_positive(log_x, positivity_floor)
        return ForwardPaths(grid=grid, state=log_x, log_state=True, positive_state=True,
                            scheme=scheme)
    if scheme != "volterra_sum":
        raise ValidationError(f"unknown scheme {scheme!r}")
    x = _simulate_volterra(scenario, noise, c_vals, last)
    if scenario.time_invariant:
        _check_positive(x, positivity_floor)
    return ForwardPaths(grid=grid, state=x, log_state=False,
                        positive_state=scenario.time_invariant, scheme=scheme)


def _simulate_multiplicative(
    scenario: ScenarioSpec, noise: NoiseBundle, control: ControlFn, last: int
) -> np.ndarray:
    grid = scenario.grid
    dt = grid.dt
    alpha = scenario.alpha(0.0, 0.0)
    beta = scenario.beta(0.0, 0.0)
    pi = scenario.pi_values()
    w = scenario.levy.weights
    c_int = control.step_integrals(grid)[:last]
    xi = float(scenario.initial)

    # log-increments per step, written in place: exact drift + exact
    # martingale factors; one running sum along each path then gives log X
    drift = alpha * dt - c_int - 0.5 * beta * beta * dt
    log_x = np.empty((noise.n_paths, last + 1))
    log_x[:, 0] = np.log(xi)
    steps = log_x[:, 1:]
    np.multiply(beta, noise.d_brownian[:, :last], out=steps)
    steps += drift[None, :]
    for q, log_jump in enumerate(np.log1p(pi)):
        steps += log_jump * noise.jump_counts[q, :, :last]
    if pi.size:
        steps -= float(np.dot(w, pi)) * dt
    np.cumsum(log_x, axis=1, out=log_x)
    return log_x


def _kernel_matrices(
    scenario: ScenarioSpec, last: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``alpha``, ``beta`` and the stacked ``pi_m`` at nodes ``0 .. last``."""
    grid = scenario.grid
    a_nodes = scenario.alpha.at_nodes(grid)[: last + 1, : last + 1]
    b_nodes = scenario.beta.at_nodes(grid)[: last + 1, : last + 1]
    p_nodes = np.zeros((scenario.n_atoms, last + 1, last + 1))
    for q, ker in enumerate(scenario.pi_kernels):
        p_nodes[q] = ker.at_nodes(grid)[: last + 1, : last + 1]
    return a_nodes, b_nodes, p_nodes


def _simulate_volterra(
    scenario: ScenarioSpec, noise: NoiseBundle, c_vals: np.ndarray, last: int
) -> np.ndarray:
    a_nodes, b_nodes, p_nodes = _kernel_matrices(scenario, last)
    source = np.broadcast_to(
        scenario.initial_at_nodes[: last + 1, None], (last + 1, noise.n_paths)
    )
    return volterra_sweep(
        source, a_nodes, c_vals[:last], b_nodes, noise.d_brownian[:, :last],
        p_nodes, noise.compensated_counts[:, :, :last], scenario.grid.dt,
    )


def forward_mean_oracle(scenario: ScenarioSpec, control: ControlFn) -> np.ndarray:
    """Deterministic mean curve: the linear Volterra equation

        m(t) = xi(t) + int_0^t (alpha(t, s) - c(s)) m(s) ds

    solved by trapezoidal quadrature (left rectangle on the final interval,
    where the control is not sampled).  The martingale terms do not
    contribute to the mean.
    """
    grid = scenario.grid
    n, dt = grid.n_steps, grid.dt
    c = control.values(grid)
    xi = scenario.initial_at_nodes
    m = np.empty(n + 1)
    m[0] = xi[0]
    for i in range(1, n + 1):
        # integrand g_j = (alpha(t_i, t_j) - c_j) m_j on j = 0..i, trapezoid;
        # the final sub-interval uses the left value when c(t_i) is unknown.
        coeff = scenario.alpha.row_at_nodes(grid, i).copy()
        coeff[:i] -= c[:i]
        if i < n:
            coeff[i] -= c[i]
            w = np.full(i + 1, dt)
            w[0] = w[i] = 0.5 * dt
            known = float(np.dot(w[:i], coeff[:i] * m[:i]))
            m[i] = (xi[i] + known) / (1.0 - w[i] * coeff[i])
        else:
            # trapezoid on [0, t_{n-1}], left rectangle on the last step
            w = np.full(i, dt)
            w[0] = 0.5 * dt
            w[i - 1] = 1.5 * dt
            m[i] = xi[i] + float(np.dot(w, coeff[:i] * m[:i]))
    return m


def first_variation(
    scenario: ScenarioSpec,
    noise: NoiseBundle,
    control: ControlFn,
    fwd: ForwardPaths,
    node: int,
    include_diagonal: bool = True,
) -> FirstVariation:
    """Linearized response of the state to a noise perturbation at ``t_k``.

    Solves the linear two-time recursion obtained by differentiating the
    state equation: the Brownian direction starts from
    ``beta(t_i, t_k) X(t_k)`` and the jump direction of atom ``m`` from
    ``pi_m(t_i, t_k) X(t_k)``; both propagate through the same triangular
    dynamics as the state itself.  Values vanish for ``i < k``.

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
    last = fwd.last_node

    a_nodes, b_nodes, p_nodes = _kernel_matrices(scenario, last)
    xk = fwd.values[:, k]
    # The source, and with it the state, is zero below ``start``: sweep only
    # the sub-triangle of nodes ``start .. last``.
    start = k if include_diagonal else k + 1
    a_sub, b_sub = a_nodes[start:, start:], b_nodes[start:, start:]
    p_sub = p_nodes[:, start:, start:]
    c_sub = control.values(grid)[start:last]
    db = noise.d_brownian[:, start:last]
    cj = noise.compensated_counts[:, :, start:last]

    def run(source_col: np.ndarray, out: np.ndarray) -> None:
        source = source_col[start:, None] * xk[None, :]
        out[:, start:] = volterra_sweep(source, a_sub, c_sub, b_sub, db, p_sub, cj, grid.dt)

    brown = np.zeros((fwd.n_paths, last + 1))
    run(b_nodes[:, k], brown)
    jumps = np.zeros((scenario.n_atoms, fwd.n_paths, last + 1))
    for q in range(scenario.n_atoms):
        run(p_nodes[q, :, k], jumps[q])
    return FirstVariation(grid=grid, node=k, brownian=brown, jump=jumps)


def mean_quantile_rows(fwd: ForwardPaths) -> list[dict]:
    """Per-node summary rows ``{t, mean, se, q05, q50, q95}`` for CSV export."""
    t = fwd.grid.nodes[: fwd.last_node + 1]
    x = fwd.values
    n = x.shape[0]
    qs = np.quantile(x, [0.05, 0.5, 0.95], axis=0)
    rows = []
    for i, ti in enumerate(t):
        rows.append({
            "t": ti,
            "mean": float(x[:, i].mean()),
            "se": float(x[:, i].std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
            "q05": float(qs[0, i]),
            "q50": float(qs[1, i]),
            "q95": float(qs[2, i]),
        })
    return rows
