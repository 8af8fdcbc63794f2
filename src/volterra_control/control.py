"""Maximum-principle layer: multipliers, memory Hamiltonian, performance, bumps.

The multiplier pipeline for the log-utility consumption problem is analytic:

``build_adjoint_state`` holds the discount multiplier ``lambda(t)`` and the
remaining value ``P(t) = int_t^T lambda`` (``controls.discount_curve`` and
``controls.remaining_value_curve``) with the closed-form rate
``c*(t) = lambda(t)/P(t)``.

``performance`` evaluates the objective by Monte Carlo, ``log_utility_oracle``
by high-resolution deterministic quadrature (time-invariant kernels only),
and ``gateaux_derivative`` estimates directional derivatives by a central
difference under common random numbers.  ``hamiltonian_h1`` is the memory
part of the Hamiltonian (kernel time-derivatives against projected adjoint
gradients).  Projection is linear, so it contracts the gradients with their
quadrature weights first, reading the state and the first variations one
node row at a time, as ``first_variation`` hands each row out, adds every
direction into one column and projects that column once.

For time-invariant kernels the exact engine gives

    log X(t_i) = L_i - C_i,    C_i = sum_{j<i} int_{t_j}^{t_{j+1}} c,

where the log-noise ``L`` (log xi plus the summed Brownian, drift and jump
log-factors) is the same for every control.  Each path's utility leg is then
the control-free ``L @ wl`` plus the deterministic ``(log c - C) @ wl``
(Merton 1971: under log utility the objective separates into a noise term
and a control term), and its terminal state is ``L_n - C_n``.
``_streamed_log_noise_leg`` sums ``L`` once, in one streamed pass of the
scenario's noise, into the leg, its per-node minimum and that minimum's
path, and its terminal row; C2-C4 and C8 read every control as a shift of
that one pass.  The rule is: a leg shifts and names its breach, at the
path and node the simulator would name, so the noise is never drawn again.
The two displaced objectives of a bump share the leg, so their difference
is deterministic and ``se_paired`` is exactly zero.  Two-time kernels
simulate every control on a bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import _positive_consumption, _utility_legs, _utility_weights
from .condexp import CondExpEngine
from .controls import ControlFn, discount_curve, fine_discount_curve, remaining_value_curve
from .fsvie import (
    ForwardPaths,
    _check_control_admissible,
    _check_floor,
    _log_rows,
    first_variation,
    simulate_fsvie,
)
from .model import ScenarioSpec, TimeGrid, ValidationError, mean_se, trapezoid_weights
from .paths import NoiseBundle, stream_noise

__all__ = [
    "AdjointState",
    "build_adjoint_state",
    "PerformanceResult",
    "performance",
    "log_utility_oracle",
    "GateauxResult",
    "gateaux_derivative",
    "hamiltonian_h1",
]


# --------------------------------------------------------------------------- #
# Analytic multiplier pipeline
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class AdjointState:
    """Multipliers along a candidate control: deterministic ``lambda`` and
    ``P``, the rate ``c*``, and (optionally) the paths ``fwd`` of the
    per-path ratio ``p = P/X``.

    The ratio is not stored: a reader forms ``big_p[s] / fwd.row(s)`` one
    node at a time, so no ``(n_paths, n+1)`` copy of ``P/X`` exists.
    """

    grid: TimeGrid
    lam: np.ndarray  # (n+1,)
    big_p: np.ndarray  # (n+1,)
    cstar: np.ndarray  # (n,)
    fwd: ForwardPaths | None = None  # the paths of X the ratio reads

    def foc_residual(self) -> float:
        """``max_i |c*(t_i) P(t_i) - lambda(t_i)|`` over left nodes."""
        n = self.grid.n_steps
        return float(np.max(np.abs(self.cstar * self.big_p[:n] - self.lam[:n])))


def build_adjoint_state(scenario: ScenarioSpec, fwd: ForwardPaths | None = None) -> AdjointState:
    grid = scenario.grid
    lam = discount_curve(scenario.gamma, grid, scenario.convention)
    big_p = remaining_value_curve(scenario.gamma, grid, scenario.convention)
    cstar = ControlFn.theta_cstar(1.0, scenario.gamma, scenario.convention).values(grid)
    return AdjointState(grid=grid, lam=lam, big_p=big_p, cstar=cstar, fwd=fwd)


# --------------------------------------------------------------------------- #
# Performance functional and its oracle
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class _LogNoiseLeg:
    """What the utility legs and C8 read of the log-noise ``L`` of the
    scenario's own noise (its ``mc`` block), the exact engine run with zero
    step integrals through the horizon.

    ``L`` itself (n_paths x (n+1)) is never formed: the per-path leg
    ``sum_i wl_i L[:, i]``, the per-node minimum of ``L`` over paths and
    the path it lies on (the lowest index on ties), and the terminal row
    ``L[:, n]`` are kept as the stream hands out its pieces.  A control
    shifts them by its spend (:meth:`spend`), which also holds the shifted
    minimum to the positivity floor.
    """

    scenario: ScenarioSpec
    leg: np.ndarray  # (n_paths,)
    min_log: np.ndarray  # (n+1,) over nodes 0 .. n
    low_path: np.ndarray  # (n+1,) int, the path of each min_log
    terminal: np.ndarray  # (n_paths,) L at node n

    def spend(self, scenario: ScenarioSpec, c_int: np.ndarray) -> np.ndarray:
        """The spend ``C_i = sum_{j<i} c_int_j`` at nodes ``0 .. len(c_int)``
        of a control with step integrals ``c_int``; raises where the shifted
        minimum ``exp(min_log - C)`` reaches the positivity floor by then,
        the one floor test of every reader of the leg."""
        if scenario is not self.scenario:
            raise ValidationError("log-noise leg was built for another scenario")
        spent = np.zeros(c_int.size + 1)
        np.cumsum(c_int, out=spent[1:])
        _check_floor(np.exp(self.min_log[: spent.size] - spent), self.low_path[: spent.size])
        return spent


def _sum_log_noise(
    scenario: ScenarioSpec, noise: NoiseBundle, leg: np.ndarray, terminal: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the control-free leg of ``noise``'s paths into ``leg``, write their
    log-noise at the horizon into ``terminal`` and return its per-node
    minimum and the path of each minimum (the lowest on ties): the exact
    engine run with zero step integrals through node ``n``.  Every value is
    per path or a minimum, so it does not depend on how the paths are split."""
    n = scenario.grid.n_steps
    # stream workers miss the caller's np.errstate; an overflow fails a check
    with np.errstate(over="ignore", invalid="ignore"):
        wl = _utility_weights(scenario)
        leg[:] = 0.0
        min_log, low_path = np.empty(n + 1), np.empty(n + 1, dtype=np.intp)
        for i, row in enumerate(_log_rows(scenario, noise, np.zeros(n), n)):
            if i < n:
                leg += wl[i] * row
            low_path[i] = row.argmin()
            min_log[i] = row[low_path[i]]
    terminal[:] = row
    return min_log, low_path


def _streamed_log_noise_leg(scenario: ScenarioSpec) -> _LogNoiseLeg:
    """The control-free leg of the scenario's own noise (its ``mc`` block),
    summed in one pass of ``stream_noise``, so the bundle is never formed."""
    mc = scenario.mc
    leg, terminal, pieces = np.empty(mc.n_paths), np.empty(mc.n_paths), {}

    def consume(rows: slice, piece: NoiseBundle) -> None:
        min_log, low_path = _sum_log_noise(scenario, piece, leg[rows], terminal[rows])
        pieces[rows.start] = min_log, low_path + rows.start

    stream_noise(scenario.grid, scenario.levy, mc.n_paths, mc.seed, mc.n_blocks, consume)
    # in path order, so that a tie between pieces goes to the lowest path
    mins, lows = map(np.array, zip(*(pieces[start] for start in sorted(pieces))))
    low_path = lows[mins.argmin(axis=0), np.arange(mins.shape[1])]
    return _LogNoiseLeg(scenario=scenario, leg=leg, min_log=mins.min(axis=0),
                        low_path=low_path, terminal=terminal)


def _shift_weights(scenario: ScenarioSpec) -> np.ndarray:
    """Weights of the control terms ``(log c, c_int)`` in the utility shift.

    ``(log c - C) @ wl = log c @ wl - c_int @ W`` with the tail sums
    ``W_j = sum_{i>j} wl_i``: the shift is linear in the terms, so the
    shift difference of two controls is taken term by term, with no running
    sum to cancel.
    """
    wl = _utility_weights(scenario)
    return np.concatenate((wl, -np.cumsum(wl[::-1])[-2::-1]))


def _control_legs(
    scenario: ScenarioSpec, control: ControlFn, noise: NoiseBundle | _LogNoiseLeg
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path utility legs of ``control`` as ``part + terms @ _shift_weights``.

    A leg shifts: ``part`` is the shared control-free leg and ``terms`` are
    the control's ``(log c, c_int)``; a control that takes the leg to the
    positivity floor raises there (:meth:`_LogNoiseLeg.spend`).  A bundle
    simulates: the state runs through the last left node, ``part`` holds
    the whole legs and ``terms`` are zero.
    """
    grid = scenario.grid
    n = grid.n_steps
    if isinstance(noise, NoiseBundle):
        fwd = simulate_fsvie(scenario, noise, control, through_node=n - 1)
        return _utility_legs(scenario, control, fwd), np.zeros(2 * n - 1)
    _check_control_admissible(control.values(grid)[: n - 1])
    c_int = control.step_integrals(grid)[: n - 1]
    noise.spend(scenario, c_int)
    log_c = np.log(_positive_consumption(scenario, control))
    return noise.leg, np.concatenate((log_c, c_int))


@dataclass(frozen=True)
class PerformanceResult:
    j: float
    se: float


def performance(
    scenario: ScenarioSpec, control: ControlFn, noise: NoiseBundle | _LogNoiseLeg
) -> PerformanceResult:
    """Monte Carlo recursive-utility objective ``J = Y(0)`` and its standard error.

    ``noise`` is a bundle, on which the state is simulated through the last
    left node, or, for a time-invariant scenario, the control-free log-noise
    leg of its own noise (``_streamed_log_noise_leg``), which callers
    evaluating several controls build once.  On that leg ``J`` is the leg's
    mean plus the control's deterministic shift, and ``se`` is the leg's, the
    same for every control.
    """
    part, terms = _control_legs(scenario, control, noise)
    shift = float(terms @ _shift_weights(scenario))
    mean, se = mean_se(part)
    return PerformanceResult(j=mean + shift, se=se)


# the oracle's quadrature grid is this many times finer than the scenario's
_ORACLE_REFINE = 10


def log_utility_oracle(scenario: ScenarioSpec, control: ControlFn) -> float:
    """Deterministic objective value for time-invariant kernels.

    Uses the jump-diffusion identity for the expected log-state,

        E[log X(s)] = log xi + int_0^s (alpha - c - beta^2/2
                                        + int (log(1+pi) - pi) nu(de)) dr,

    and integrates ``lambda(s) (log c(s) + E[log X(s)])`` on a grid refined
    ``_ORACLE_REFINE``-fold, with a left rectangle on the final sub-interval
    (the rate may diverge at the horizon).
    """
    if not scenario.time_invariant:
        raise ValidationError("oracle requires time-invariant kernels and constant initial level")
    grid = scenario.grid
    n_fine = _ORACLE_REFINE * grid.n_steps
    s = np.linspace(0.0, grid.horizon, n_fine + 1)
    ds = s[1] - s[0]
    alpha = scenario.alpha(0.0, 0.0)
    beta = scenario.beta(0.0, 0.0)
    pi = scenario.pi_values()
    jump_rate = float(np.dot(scenario.levy.weights, np.log1p(pi) - pi)) if pi.size else 0.0

    lam = fine_discount_curve(scenario.gamma, s, scenario.convention)
    c_vals, cum_c = control.oracle_profile(s, grid)
    drift = alpha - 0.5 * beta * beta + jump_rate
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = lam * (np.log(c_vals) + np.log(float(scenario.initial)) + drift * s - cum_c)
    # trapezoid on [0, T - ds], left rectangle on the last sub-interval
    body = np.trapezoid(integrand[:-1], dx=ds)
    return float(body + ds * integrand[-2])


# --------------------------------------------------------------------------- #
# Directional derivative (bump perturbations)
# --------------------------------------------------------------------------- #

# relative size of the central-difference displacement
_BUMP_THETA = 1e-3


@dataclass(frozen=True)
class GateauxResult:
    estimate: float
    se: float          # propagated from the two objective SEs
    se_paired: float   # per-path common-random-number standard error
    j_plus: float
    j_minus: float


def gateaux_derivative(
    scenario: ScenarioSpec,
    control: ControlFn,
    bump_start: float,
    bump_len: float,
    bump_height: float,
    noise: NoiseBundle | _LogNoiseLeg,
) -> GateauxResult:
    """Central-difference directional derivative of the utility objective.

    The displaced controls are ``control +- _BUMP_THETA * bump_height`` on
    the bump interval.

    Both displaced objectives are evaluated on the same noise, a bundle or
    a control-free log-noise leg (see ``performance``).  The reported
    ``se`` propagates the two objective standard errors as if they were
    independent measurements; ``se_paired`` is the standard error of the
    per-path differences.  On a leg both objectives share it, so the
    difference is the difference of their deterministic shifts and
    ``se_paired`` is exactly zero.
    """
    if bump_height == 0.0:
        base = performance(scenario, control, noise)
        return GateauxResult(estimate=0.0, se=0.0, se_paired=0.0, j_plus=base.j, j_minus=base.j)
    if bump_start < 0.0 or bump_start + bump_len > scenario.grid.horizon + 1e-12:
        raise ValidationError("bump interval must lie inside [0, T)")

    parts, terms = {}, {}
    for sgn in (+1.0, -1.0):
        ctrl = ControlFn.bump(control, bump_start, bump_len, sgn * _BUMP_THETA * bump_height)
        parts[sgn], terms[sgn] = _control_legs(scenario, ctrl, noise)
    weights = _shift_weights(scenario)
    # exactly zero when both displaced controls share the control-free leg
    diff = (parts[+1.0] - parts[-1.0]) / (2.0 * _BUMP_THETA)
    shift_diff = float((terms[+1.0] - terms[-1.0]) @ weights) / (2.0 * _BUMP_THETA)
    (mean_up, se_up), (mean_dn, se_dn) = mean_se(parts[+1.0]), mean_se(parts[-1.0])
    mean_diff, se_diff = mean_se(diff)
    return GateauxResult(
        estimate=mean_diff + shift_diff,
        se=float(np.hypot(se_up, se_dn) / (2.0 * _BUMP_THETA)),
        se_paired=se_diff,
        j_plus=mean_up + float(terms[+1.0] @ weights),
        j_minus=mean_dn + float(terms[-1.0] @ weights),
    )


# --------------------------------------------------------------------------- #
# Hamiltonians
# --------------------------------------------------------------------------- #

def hamiltonian_h1(
    node: int,
    x: float,
    fwd: ForwardPaths | None,
    adjoint: AdjointState,
    scenario: ScenarioSpec,
    noise: NoiseBundle | None = None,
    control: ControlFn | None = None,
) -> tuple[float, float]:
    """Memory part of the Hamiltonian at ``t = t_node`` (estimate, SE).

    With ``p = P / X`` the adjoint ratio read from ``adjoint.fwd``,

        x int_t^T [ dalpha/ds(s,t) p(s) + dbeta/ds(s,t) E_t[D_t p(s)]
                    + sum_q w_q dpi_q/ds(s,t) E_t[D_{t,q} p(s)] ] ds,

    trapezoid quadrature in the running time, on the kernel derivative
    columns ``d_first_column(grid, node)``.  The stochastic gradients of
    ``p`` come from the first variations of ``fwd``: ``-P V / X^2`` in the
    Brownian direction and the exact difference ``P/(X + dX) - P/X`` for a
    jump.  Conditional expectation is linear, so each gradient is contracted
    with its quadrature weights first, one node row of ``X`` and of the first
    variation at a time, as ``first_variation`` hands out each row, so no
    direction is held whole (on the lift, none is ever formed); every
    direction is added into one ``(N,)`` column, which is then projected
    once onto the information at ``t``.  Both ``adjoint.fwd`` and, when
    there are gradient terms, ``fwd`` must reach the horizon; then ``fwd``
    must be ``adjoint.fwd`` itself, and ``noise`` the bundle it was
    simulated on.  Zero exactly when every
    kernel is constant in its first argument, and at ``node = n``, where the
    integral over ``[T, T]`` is empty.
    """
    grid = scenario.grid
    n = grid.n_steps
    k = int(node)
    if not 0 <= k <= n:
        raise ValidationError(f"memory Hamiltonian node must satisfy 0 <= node <= n = {n}, "
                              f"got {node}")
    if k == n:
        return 0.0, 0.0
    col_a = scenario.alpha.d_first_column(grid, k)
    col_b = scenario.beta.d_first_column(grid, k)
    cols_p = [kk.d_first_column(grid, k) for kk in scenario.pi_kernels]
    gradients = bool(np.any(col_b)) or any(np.any(c) for c in cols_p)
    if not np.any(col_a) and not gradients:
        return 0.0, 0.0

    if adjoint.fwd is None:
        raise ValidationError("memory Hamiltonian needs per-path adjoint ratios")
    if adjoint.fwd.last_node < n:
        raise ValidationError("memory Hamiltonian needs paths through the horizon")
    if gradients and (noise is None or control is None or fwd is None):
        raise ValidationError("kernel time-derivative terms need noise, control and paths")
    if gradients and fwd.last_node < n:
        raise ValidationError("kernel time-derivative terms need paths through the horizon")
    if gradients and fwd is not adjoint.fwd:
        raise ValidationError("kernel time-derivative terms read the adjoint ratio and its "
                              "gradients on one set of paths: fwd must be adjoint.fwd")
    # trapezoid weights on [t_k, T]
    w = trapezoid_weights(n + 1 - k, grid.dt)
    big_p = adjoint.big_p
    per_path = np.zeros(adjoint.fwd.n_paths)
    for j, s in enumerate(range(k, n + 1)):
        per_path += big_p[s] / adjoint.fwd.row(s) * (w[j] * col_a[j])

    if gradients:
        # weights of the Brownian direction and, scaled by w_q, of each jump
        weights = np.stack([w * col_b] + [
            wq * w * col for wq, col in zip(scenario.levy.weights, cols_p)
        ])
        column = np.zeros(fwd.n_paths)

        def contract(direction: int, s: int, row: np.ndarray) -> None:
            # row is the first variation at node s; its gradient of p is
            # contracted into the one column
            x_s, p_s = fwd.row(s), big_p[s]
            if direction == 0:
                gradient = -p_s * row / x_s**2
            else:
                gradient = p_s / (x_s + row) - p_s / x_s
            np.add(column, gradient * weights[direction, s - k], out=column)

        first_variation(scenario, noise, control, fwd, k, contract)
        engine = CondExpEngine(scenario.filtration, scenario.regression, noise, x_paths=fwd)
        per_path += engine.project(k, column)
    per_path *= x
    return mean_se(per_path)

