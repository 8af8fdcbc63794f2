"""Maximum-principle layer: multipliers, Hamiltonians, performance, bumps.

The multiplier pipeline for the log-utility consumption problem is analytic:

* ``lambda_adjoint``     -- discount multiplier ``lambda(t)`` (forward ODE);
* ``adjoint_product``    -- remaining value ``P(t) = int_t^T lambda``;
* ``build_adjoint_state``-- both, plus the closed-form rate ``c*(t) = lambda(t)/P(t)``.

``performance`` evaluates the objective by Monte Carlo, ``log_utility_oracle``
by high-resolution deterministic quadrature (time-invariant kernels only),
and ``gateaux_derivative`` estimates directional derivatives by a central
difference under common random numbers.  The two-part Hamiltonian splits into
the diagonal part ``hamiltonian_h0`` and the memory part ``hamiltonian_h1``
(kernel time-derivatives against projected adjoint gradients).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import _utility_legs
from .condexp import CondExpEngine
from .controls import ControlFn, discount_curve, remaining_value_curve
from .fsvie import ForwardPaths, first_variation, simulate_fsvie
from .model import ScenarioSpec, TimeGrid, ValidationError, time_quadrature_weights
from .paths import NoiseBundle

__all__ = [
    "AdjointState",
    "lambda_adjoint",
    "adjoint_product",
    "build_adjoint_state",
    "PerformanceResult",
    "performance",
    "log_utility_oracle",
    "GateauxResult",
    "gateaux_derivative",
    "hamiltonian_h0",
    "hamiltonian_h1",
    "adjoint_malliavin_projection",
    "concavity_probe",
    "consumption_rows",
]


# --------------------------------------------------------------------------- #
# Analytic multiplier pipeline
# --------------------------------------------------------------------------- #

def lambda_adjoint(gamma: np.ndarray, grid: TimeGrid, convention: str = "discounting") -> np.ndarray:
    """Discount multiplier on all nodes; ``lambda(0) = 1``."""
    return discount_curve(np.asarray(gamma, float), grid, convention)


def adjoint_product(gamma: np.ndarray, grid: TimeGrid, convention: str = "discounting") -> np.ndarray:
    """Remaining value ``P(t_i) = sum_{j>=i} lambda(t_j) dt``; ``P(T) = 0``."""
    return remaining_value_curve(np.asarray(gamma, float), grid, convention)


@dataclass(frozen=True, eq=False)
class AdjointState:
    """Multipliers along a candidate control: deterministic ``lambda`` and
    ``P``, the rate ``c*``, and (optionally) the per-path ratio ``p = P/X``."""

    grid: TimeGrid
    lam: np.ndarray  # (n+1,)
    big_p: np.ndarray  # (n+1,)
    cstar: np.ndarray  # (n,)
    p_paths: np.ndarray | None = None  # (n_paths, n+1) when paths attached

    def foc_residual(self) -> float:
        """``max_i |c*(t_i) P(t_i) - lambda(t_i)|`` over left nodes."""
        n = self.grid.n_steps
        return float(np.max(np.abs(self.cstar * self.big_p[:n] - self.lam[:n])))


def build_adjoint_state(scenario: ScenarioSpec, fwd: ForwardPaths | None = None) -> AdjointState:
    grid = scenario.grid
    lam = lambda_adjoint(scenario.gamma, grid, scenario.convention)
    big_p = adjoint_product(scenario.gamma, grid, scenario.convention)
    cstar = lam[:-1] / big_p[:-1]
    p_paths = None
    if fwd is not None:
        last = fwd.last_node
        p_paths = big_p[None, : last + 1] / fwd.values
    return AdjointState(grid=grid, lam=lam, big_p=big_p, cstar=cstar, p_paths=p_paths)


# --------------------------------------------------------------------------- #
# Performance functional and its oracle
# --------------------------------------------------------------------------- #

_CATALOG = {
    "zero": (lambda x: np.zeros_like(x), lambda x: 0.0),
    "identity": (lambda x: x, lambda x: 1.0),
    "log": (np.log, lambda x: 1.0 / x),
}


def _scalar_fn(spec):
    """Resolve a catalog entry ``zero|identity|log|("power", g)`` to (f, f')."""
    if isinstance(spec, tuple) and spec[0] == "power":
        g = float(spec[1])
        if g == 0.0:
            raise ValidationError("power exponent must be nonzero (use 'log')")
        return (lambda x: x**g / g, lambda x: x ** (g - 1.0))
    try:
        return _CATALOG[spec]
    except KeyError as exc:
        raise ValidationError(f"unknown functional spec {spec!r}") from exc


@dataclass(frozen=True)
class PerformanceResult:
    j: float
    se: float
    y0: float
    y0_se: float


def performance(
    scenario: ScenarioSpec,
    control: ControlFn,
    noise: NoiseBundle,
    f_spec="zero",
    phi_spec="zero",
    psi_spec="identity",
    fwd: ForwardPaths | None = None,
) -> PerformanceResult:
    """Monte Carlo objective ``E[int f(X) dt + phi(X(T))] + psi(Y(0))``.

    The default specs reproduce the pure recursive-utility objective
    ``J = Y(0)``.  The state path is simulated through the last left node
    unless the terminal functional ``phi`` is nonzero.
    """
    grid = scenario.grid
    n = grid.n_steps
    needs_terminal = phi_spec != "zero"
    if fwd is None:
        fwd = simulate_fsvie(scenario, noise, control,
                             through_node=None if needs_terminal else n - 1)
    if needs_terminal and fwd.last_node < n:
        raise ValidationError("terminal functional requires paths through T")

    u_legs = _utility_legs(scenario, control, fwd)
    y0 = float(u_legs.mean())
    n_paths = u_legs.shape[0]
    y0_se = float(u_legs.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0

    extra = np.zeros(n_paths)
    if f_spec != "zero":
        f_fn, _ = _scalar_fn(f_spec)
        w = time_quadrature_weights(grid)
        extra += f_fn(fwd.values[:, :n]) @ w
    if needs_terminal:
        phi_fn, _ = _scalar_fn(phi_spec)
        extra += phi_fn(fwd.values[:, n])

    psi_fn, psi_d = _scalar_fn(psi_spec)
    combined = extra + psi_d(y0) * u_legs  # delta-method linearization
    j = float(extra.mean()) + float(psi_fn(np.asarray(y0)))
    se = float(combined.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return PerformanceResult(j=j, se=se, y0=y0, y0_se=y0_se)


def log_utility_oracle(scenario: ScenarioSpec, control: ControlFn, refine: int = 10) -> float:
    """Deterministic objective value for time-invariant kernels.

    Uses the jump-diffusion identity for the expected log-state,

        E[log X(s)] = log xi + int_0^s (alpha - c - beta^2/2
                                        + int (log(1+pi) - pi) nu(de)) dr,

    and integrates ``lambda(s) (log c(s) + E[log X(s)])`` on a grid refined
    ``refine``-fold, with a left rectangle on the final sub-interval (the
    rate may diverge at the horizon).
    """
    if not scenario.time_invariant:
        raise ValidationError("oracle requires time-invariant kernels and constant initial level")
    grid = scenario.grid
    n_fine = refine * grid.n_steps
    s = np.linspace(0.0, grid.horizon, n_fine + 1)
    ds = s[1] - s[0]
    alpha = scenario.alpha(0.0, 0.0)
    beta = scenario.beta(0.0, 0.0)
    pi = scenario.pi_values()
    jump_rate = float(np.dot(scenario.levy.weights, np.log1p(pi) - pi)) if pi.size else 0.0

    gamma_fine = np.interp(s, grid.nodes, scenario.gamma)
    sign = -1.0 if scenario.convention == "discounting" else 1.0
    cum_gamma = np.concatenate(([0.0], np.cumsum(0.5 * (gamma_fine[1:] + gamma_fine[:-1]) * ds)))
    lam = np.exp(sign * cum_gamma)

    c_vals, cum_c = control.oracle_profile(s)
    drift = alpha - 0.5 * beta * beta + jump_rate
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = lam * (np.log(c_vals) + np.log(float(scenario.initial)) + drift * s - cum_c)
    # trapezoid on [0, T - ds], left rectangle on the last sub-interval
    body = np.trapezoid(integrand[:-1], dx=ds)
    return float(body + ds * integrand[-2])


# --------------------------------------------------------------------------- #
# Directional derivative (bump perturbations)
# --------------------------------------------------------------------------- #

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
    noise: NoiseBundle,
    theta: float = 1e-3,
) -> GateauxResult:
    """Central-difference directional derivative of the utility objective.

    Both displaced objectives are evaluated on the same noise bundle.  The
    reported ``se`` propagates the two objective standard errors as if they
    were independent measurements; ``se_paired`` is the (much smaller)
    standard error of the per-path pathwise differences.
    """
    if bump_height == 0.0:
        base = performance(scenario, control, noise)
        return GateauxResult(estimate=0.0, se=0.0, se_paired=0.0, j_plus=base.j, j_minus=base.j)
    if bump_start < 0.0 or bump_start + bump_len > scenario.grid.horizon + 1e-12:
        raise ValidationError("bump interval must lie inside [0, T)")

    n = scenario.grid.n_steps
    legs = {}
    for sgn in (+1.0, -1.0):
        ctrl = ControlFn.bump(control, bump_start, bump_len, sgn * theta * bump_height)
        vals = ctrl.values(scenario.grid)
        if np.any(vals <= 0.0):
            raise ValidationError("bumped control loses positivity; reduce theta")
        fwd = simulate_fsvie(scenario, noise, ctrl, through_node=n - 1)
        legs[sgn] = _utility_legs(scenario, ctrl, fwd)
    diff = (legs[+1.0] - legs[-1.0]) / (2.0 * theta)
    n_paths = diff.shape[0]
    j_plus, j_minus = float(legs[+1.0].mean()), float(legs[-1.0].mean())
    se_plus = float(legs[+1.0].std(ddof=1) / np.sqrt(n_paths))
    se_minus = float(legs[-1.0].std(ddof=1) / np.sqrt(n_paths))
    return GateauxResult(
        estimate=float(diff.mean()),
        se=float(np.hypot(se_plus, se_minus) / (2.0 * theta)),
        se_paired=float(diff.std(ddof=1) / np.sqrt(n_paths)),
        j_plus=j_plus,
        j_minus=j_minus,
    )


# --------------------------------------------------------------------------- #
# Hamiltonians
# --------------------------------------------------------------------------- #

def hamiltonian_h0(
    t: float,
    x: float,
    y: float,
    c: float,
    p: float,
    q: float,
    r: np.ndarray | None,
    lam: float,
    scenario: ScenarioSpec,
    f_spec="zero",
) -> float:
    """Diagonal Hamiltonian part for the consumption model.

    ``(alpha(t,t) - c) p x + beta(t,t) q x + sum_m pi_m(t,t) x r_m w_m
    + (log c + log x -+ gamma(t) y) lam``, plus the running-cost term when
    a nonzero ``f`` is configured.
    """
    if c <= 0.0 or x <= 0.0:
        raise ValidationError("Hamiltonian requires c > 0 and x > 0")
    alpha_tt = scenario.alpha(t, t)
    beta_tt = scenario.beta(t, t)
    gamma_t = float(np.interp(t, scenario.grid.nodes, scenario.gamma))
    sign = -1.0 if scenario.convention == "discounting" else 1.0
    value = (alpha_tt - c) * p * x + beta_tt * q * x
    if scenario.n_atoms:
        r = np.zeros(scenario.n_atoms) if r is None else np.asarray(r, float)
        pis = np.array([k(t, t) for k in scenario.pi_kernels])
        value += float(np.dot(scenario.levy.weights, pis * r)) * x
    value += (np.log(c) + np.log(x) + sign * gamma_t * y) * lam
    if f_spec != "zero":
        f_fn, _ = _scalar_fn(f_spec)
        value += float(f_fn(np.asarray(x)))
    return float(value)


def adjoint_malliavin_projection(
    scenario: ScenarioSpec,
    noise: NoiseBundle,
    control: ControlFn,
    fwd: ForwardPaths,
    adjoint: AdjointState,
    node: int,
) -> dict:
    """Projected stochastic gradients of the adjoint ratio ``p = P / X``.

    For the Brownian direction the pathwise derivative is
    ``-P(s) V(s) / X(s)^2`` with ``V`` the first-variation process; for a
    jump direction the exact difference ``P/(X + dX) - P/X`` is used.  Both
    are projected onto the information at the differentiation node.  Keys:
    ``brownian`` (n_paths, n_nodes) and ``jump`` (n_atoms, n_paths, n_nodes);
    columns before the node are zero.
    """
    k = int(node)
    fv = first_variation(scenario, noise, control, fwd, k)
    last = fwd.last_node
    x = fwd.values
    big_p = adjoint.big_p[: last + 1]
    engine = CondExpEngine(scenario.filtration, scenario.regression, noise, x_paths=x)

    m = scenario.n_atoms
    n_paths = x.shape[0]
    # every gradient column from node k on, all directions, in one projection
    cols = slice(k, last + 1)
    width = last + 1 - k
    p_tail, x_tail = big_p[None, cols], x[:, cols]
    block = np.empty((n_paths, (1 + m) * width), order="F")
    block[:, :width] = -p_tail * fv.brownian[:, cols] / x_tail**2
    for q in range(m):
        block[:, (q + 1) * width:(q + 2) * width] = (
            p_tail / (x_tail + fv.jump[q][:, cols]) - p_tail / x_tail
        )
    block = engine.project(k, block)
    out_b = np.zeros((n_paths, last + 1))
    out_b[:, cols] = block[:, :width]
    out_j = np.zeros((m, n_paths, last + 1))
    for q in range(m):
        out_j[q][:, cols] = block[:, (q + 1) * width:(q + 2) * width]
    return {"brownian": out_b, "jump": out_j}


def hamiltonian_h1(
    node: int,
    x: float,
    fwd: ForwardPaths | None,
    adjoint: AdjointState,
    scenario: ScenarioSpec,
    noise: NoiseBundle | None = None,
    control: ControlFn | None = None,
    projections: dict | None = None,
) -> tuple[float, float]:
    """Memory part of the Hamiltonian at ``t = t_node`` (estimate, SE).

    ``int_t^T dalpha/ds(s,t) x p(s) ds`` plus the diffusion and jump terms
    weighted by the projected adjoint gradients.  Zero exactly when every
    kernel is constant in its first argument.  Trapezoid quadrature in the
    running time.
    """
    grid = scenario.grid
    n = grid.n_steps
    k = int(node)
    t_k = grid.nodes[k]
    d_alpha = scenario.alpha.d_first_at_nodes(grid)
    d_beta = scenario.beta.d_first_at_nodes(grid)
    d_pi = [kk.d_first_at_nodes(grid) for kk in scenario.pi_kernels]
    col_a = d_alpha[k:, k]
    col_b = d_beta[k:, k]
    cols_p = [d[k:, k] for d in d_pi]
    if not np.any(col_a) and not np.any(col_b) and not any(np.any(c) for c in cols_p):
        return 0.0, 0.0

    if adjoint.p_paths is None:
        raise ValidationError("memory Hamiltonian needs per-path adjoint ratios")
    last = adjoint.p_paths.shape[1] - 1
    if last < n:
        raise ValidationError("memory Hamiltonian needs paths through the horizon")
    # trapezoid weights on [t_k, T]
    w = np.full(n + 1 - k, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    per_path = (adjoint.p_paths[:, k:] * (w * col_a)[None, :]).sum(axis=1) * x

    if (np.any(col_b) or any(np.any(c) for c in cols_p)):
        if projections is None:
            if noise is None or control is None or fwd is None:
                raise ValidationError(
                    "kernel time-derivative terms need noise/control/paths or "
                    "precomputed projections"
                )
            projections = adjoint_malliavin_projection(scenario, noise, control, fwd, adjoint, k)
        if np.any(col_b):
            per_path = per_path + (projections["brownian"][:, k:] * (w * col_b)[None, :]).sum(axis=1) * x
        for q, col in enumerate(cols_p):
            if np.any(col):
                wq = scenario.levy.weights[q]
                per_path = per_path + wq * (projections["jump"][q][:, k:] * (w * col)[None, :]).sum(axis=1) * x

    n_paths = per_path.shape[0]
    se = float(per_path.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return float(per_path.mean()), se


def concavity_probe(
    scenario: ScenarioSpec,
    samples: list[dict],
    rel_step: float = 1e-4,
) -> dict:
    """Numerical Hessian of the diagonal Hamiltonian over ``(x, y, c)``.

    Each sample is a dict with keys ``t, x, y, c`` and multipliers
    ``p, q, r, lam``.  Central differences with a relative step; reports the
    minimum eigenvalue per sample and overall.  Diagnostic only -- no
    pass/fail.
    """
    reports = []
    for smp in samples:
        t = smp["t"]
        base = np.array([smp["x"], smp["y"], smp["c"]], dtype=float)
        p, q, lam = smp.get("p", 0.0), smp.get("q", 0.0), smp.get("lam", 1.0)
        r = smp.get("r")

        def h_at(v):
            return hamiltonian_h0(t, v[0], v[1], v[2], p, q, r, lam, scenario)

        steps = rel_step * np.maximum(np.abs(base), 1.0)
        hess = np.empty((3, 3))
        for a in range(3):
            for b in range(a, 3):
                if a == b:
                    vp, vm = base.copy(), base.copy()
                    vp[a] += steps[a]
                    vm[a] -= steps[a]
                    hess[a, a] = (h_at(vp) - 2.0 * h_at(base) + h_at(vm)) / steps[a] ** 2
                else:
                    vpp, vpm, vmp, vmm = (base.copy() for _ in range(4))
                    vpp[[a, b]] += steps[[a, b]]
                    vpm[a] += steps[a]; vpm[b] -= steps[b]
                    vmp[a] -= steps[a]; vmp[b] += steps[b]
                    vmm[[a, b]] -= steps[[a, b]]
                    hess[a, b] = hess[b, a] = (
                        h_at(vpp) - h_at(vpm) - h_at(vmp) + h_at(vmm)
                    ) / (4.0 * steps[a] * steps[b])
        eigs = np.linalg.eigvalsh(hess)
        reports.append({"sample": smp, "hessian": hess, "min_eigenvalue": float(eigs[0])})
    overall = min(r["min_eigenvalue"] for r in reports) if reports else 0.0
    return {"samples": reports, "min_eigenvalue": overall}


# --------------------------------------------------------------------------- #
# CSV row helpers
# --------------------------------------------------------------------------- #

def consumption_rows(scenario: ScenarioSpec) -> list[dict]:
    """Rows ``{t, lambda, P, c_star}`` over the left nodes."""
    grid = scenario.grid
    adj = build_adjoint_state(scenario)
    rows = []
    for i in range(grid.n_steps):
        rows.append({
            "t": float(grid.nodes[i]),
            "lambda": float(adj.lam[i]),
            "P": float(adj.big_p[i]),
            "c_star": float(adj.cstar[i]),
        })
    return rows
