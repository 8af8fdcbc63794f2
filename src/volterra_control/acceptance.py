"""Reference-scenario acceptance checks.

Every check returns :class:`CheckResult` records with the measured value,
the reference, the tolerance actually enforced, and the outcome.  The same
functions back the pytest acceptance suite and every CLI subcommand, so the
two always agree.  Beside the reference-scenario criteria stand the rows that
generalise them to any scenario, which the subcommands other than
``run-acceptance`` and ``check-mp`` report: C1's first-order condition
(``optimal-consumption``), C2's exact discrete utility mean
(``evaluate-utility``), C5's discrete resolvent (``solve-bsvie``), C7's two
sides of each identity, against each other and against their exact discrete
values (``verify-duality``), and C8's terminal-mean oracle
(``simulate-forward``).

The reference scenario is fixed: horizon 1, 100 steps, unit initial level,
zero discount rate, constant drift/diffusion loadings 0.05 / 0.2, no jump
atoms, trivial information flow, discounting convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .bsde import _positive_consumption, _utility_weights, solve_bsde
from .bsvie import BsvieSolution, FamilyStatistics, family_statistics, solve_bsvie
from .condexp import CondExpEngine
from .controls import ControlFn, discount_curve, remaining_value_curve
from .control import (
    AdjointState,
    PerformanceResult,
    _LogNoiseLeg,
    _streamed_log_noise_leg,
    build_adjoint_state,
    gateaux_derivative,
    log_utility_oracle,
    performance,
)
from .fsvie import ForwardPaths, _log_row_means, forward_mean_oracle, simulate_fsvie
from .malliavin import (
    DualityResult,
    JumpIntegral,
    WienerIntegral,
    verify_duality_brownian,
    verify_duality_jump,
)
from .model import (
    FiltrationMode,
    LevyMeasure,
    RegressionSpec,
    ScenarioSpec,
    TimeGrid,
    ValidationError,
    build_time_grid,
    mean_se,
    validate_scenario,
)
from .paths import generate_noise

__all__ = [
    "CheckResult",
    "require_reference_scenario",
    "check_closed_form_optimum",
    "check_first_order_condition",
    "check_value_oracle",
    "check_utility_exact_mean",
    "check_optimality_ranking",
    "check_necessary_mp",
    "resolvent_solution",
    "martingale_family_solution",
    "check_bsvie_solver",
    "check_resolvent_fixed_point",
    "check_contraction",
    "brownian_duality",
    "jump_duality",
    "check_duality",
    "check_sides_agree",
    "check_exact_sides",
    "check_forward_solver",
    "check_terminal_mean",
    "check_adjoint_reduction",
    "check_z_time_derivative",
    "run_acceptance",
]


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    name: str
    value: float
    reference: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.criterion} {self.name}: {status} "
            f"value={self.value:.6g} reference={self.reference:.6g} tol={self.tolerance:.3g}"
        )


def _result(criterion, name, value, reference, tolerance, detail="") -> CheckResult:
    # a value, reference or band that is not finite proves nothing
    finite = all(map(math.isfinite, (value, reference, tolerance)))
    return CheckResult(
        criterion=criterion, name=name, value=float(value), reference=float(reference),
        tolerance=float(tolerance), passed=finite and bool(abs(value - reference) <= tolerance),
        detail=detail,
    )


def require_reference_scenario(scenario: ScenarioSpec) -> None:
    """The acceptance oracles are derived for one fixed parameter set."""
    ok = (
        abs(scenario.grid.horizon - 1.0) < 1e-12
        and scenario.grid.n_steps == 100
        and np.isscalar(scenario.initial)
        and abs(float(scenario.initial) - 1.0) < 1e-12
        and np.all(scenario.gamma == 0.0)
        and scenario.alpha.kind == "constant" and scenario.alpha.value == 0.05
        and scenario.beta.kind == "constant" and scenario.beta.value == 0.2
        and scenario.n_atoms == 0
        and scenario.filtration.mode == "trivial"
        and scenario.convention == "discounting"
    )
    if not ok:
        raise ValidationError(
            "acceptance suite requires the reference scenario "
            "(T=1, n=100, xi=1, gamma=0, alpha=0.05, beta=0.2, no atoms, "
            "trivial filtration, discounting)"
        )


# --------------------------------------------------------------------------- #
# Individual criteria
# --------------------------------------------------------------------------- #

def check_closed_form_optimum(scenario: ScenarioSpec) -> list[CheckResult]:
    """C1: zero-discount optimal rate is 1/(T - t) and satisfies the
    first-order condition to machine precision."""
    grid = scenario.grid
    adj = build_adjoint_state(scenario)
    target = 1.0 / (1.0 - grid.nodes[:-1])
    gap = float(np.max(np.abs(adj.cstar - target)))
    return [
        _result("C1", "optimal_rate_nodes", gap, 0.0, 1e-12,
                "max |c*(t_i) - 1/(1-t_i)| over left nodes"),
    ] + check_first_order_condition(adj)


def check_first_order_condition(adj: AdjointState) -> list[CheckResult]:
    """C1 on any scenario: the rate ``c* = lambda / P`` of the multipliers
    ``adj`` satisfies ``c* P = lambda`` to machine precision."""
    return [_result("C1", "first_order_condition", adj.foc_residual(), 0.0, 1e-12,
                    "max |c* P - lambda|")]


def check_value_oracle(scenario: ScenarioSpec, noise) -> list[CheckResult]:
    """C2: Monte Carlo objective versus the closed forms -0.485 and 0.015.

    ``noise`` is the main bundle or its control-free log-noise leg.  The two
    value rows are one test, not two: log X is affine in the control, so
    both estimates are the mean of one control-free leg plus a deterministic
    shift.  They carry the same noise term and the same SE, and miss their
    bands together.
    """
    grid = scenario.grid
    res_one = performance(scenario, ControlFn.constant(1.0, grid), noise)
    cstar = ControlFn.theta_cstar(1.0, scenario.gamma, scenario.convention)
    res_star = performance(scenario, cstar, noise)
    return [
        _result("C2", "J_constant_one", res_one.j, -0.485, 3.0 * res_one.se,
                f"se={res_one.se:.2e}"),
        _result("C2", "J_constant_one_se_cap", res_one.se, 0.0, 0.01),
        _result("C2", "J_optimal", res_star.j, 0.015, 3.0 * res_star.se,
                f"se={res_star.se:.2e}"),
        _result("C2", "J_optimal_se_cap", res_star.se, 0.0, 0.01),
    ]


def check_utility_exact_mean(
    scenario: ScenarioSpec, control: ControlFn, res: PerformanceResult
) -> list[CheckResult]:
    """C2 on any scenario: the Monte Carlo objective ``res`` of ``control``
    within 3 SE of its exact discrete mean ``sum_i wl_i (log c_i +
    E[log X_i])``, the value the exact engine estimates without bias on its
    own grid.  Only time-invariant kernels have it; on others there is no
    row.  The continuous quadrature oracle prices the control's continuous
    profile, not its grid values, so its gap is reported, not gated."""
    if not scenario.time_invariant:
        return []
    n = scenario.grid.n_steps
    mean_log_x = _log_row_means(scenario, control.step_integrals(scenario.grid), n - 1)
    log_c = np.log(_positive_consumption(scenario, control))
    exact = float((log_c + mean_log_x) @ _utility_weights(scenario))
    return [_result("C2", "utility_vs_exact_mean", res.j, exact, 3.0 * res.se,
                    f"se={res.se:.2e}")]


def check_optimality_ranking(scenario: ScenarioSpec, noise) -> list[CheckResult]:
    """C3: the oracle is maximized at theta = 1 and the Monte Carlo values
    reproduce the full oracle ranking under common random numbers."""
    thetas = [0.7, 0.85, 1.0, 1.15, 1.3]
    j_mc, j_or = [], []
    for th in thetas:
        ctrl = ControlFn.theta_cstar(th, scenario.gamma, scenario.convention)
        j_mc.append(performance(scenario, ctrl, noise).j)
        j_or.append(log_utility_oracle(scenario, ctrl))
    argmax_or = int(np.argmax(j_or))
    rank_or = tuple(np.argsort(j_or)[::-1])
    rank_mc = tuple(np.argsort(j_mc)[::-1])
    detail = f"thetas={thetas} oracle={['%.5f' % v for v in j_or]} mc={['%.5f' % v for v in j_mc]}"
    return [
        _result("C3", "oracle_argmax_theta", thetas[argmax_or], 1.0, 0.0, detail),
        _result("C3", "mc_ranking_matches", float(rank_mc == rank_or), 1.0, 0.0,
                f"oracle order {rank_or}, mc order {rank_mc}"),
    ]


def check_necessary_mp(scenario: ScenarioSpec, noise) -> list[CheckResult]:
    """C4: directional derivatives vanish at the optimum and match the
    analytic value 0.045 at the unit rate for the bump on [0.4, 0.5).

    Both displaced objectives share the control-free log-noise leg, so each
    estimate is the deterministic difference of their shifts, the exact
    discrete central difference up to rounding, and ``se_paired`` is exactly
    0.  The band is 3 ``se``, which treats the two objectives as independent.
    """
    out = []
    cstar = ControlFn.theta_cstar(1.0, scenario.gamma, scenario.convention)
    for start in (0.1, 0.4, 0.7):
        g = gateaux_derivative(scenario, cstar, start, 0.1, 1.0, noise)
        out.append(_result(
            "C4", f"derivative_at_optimum_bump_{start:g}", g.estimate, 0.0, 3.0 * g.se,
            f"se={g.se:.3g} se_paired={g.se_paired:.3g}",
        ))
    one = ControlFn.constant(1.0, scenario.grid)
    g = gateaux_derivative(scenario, one, 0.4, 0.1, 1.0, noise)
    out.append(_result(
        "C4", "derivative_at_unit_rate", g.estimate, 0.045, 3.0 * g.se,
        f"se={g.se:.3g} se_paired={g.se_paired:.3g}",
    ))
    return out


def resolvent_solution(grid: TimeGrid) -> BsvieSolution:
    """Deterministic fixed point of ``Y(t) = 1 + int_t^T Y(s) ds`` on ``grid``.

    The problem is path-constant, so a few hundred paths carry it exactly.
    """
    n_paths = 256
    levy = LevyMeasure.from_atoms([])
    noise = generate_noise(grid, levy, n_paths=n_paths, seed=11, n_blocks=1)
    engine = CondExpEngine(FiltrationMode(mode="trivial"), RegressionSpec(), noise)
    zeta = np.ones((grid.n_steps + 1, n_paths))

    def driver(i, r, y_frozen, z, k, x):
        return y_frozen

    # tight tolerance: the weighted scale is exp-inflated, so a loose relative
    # threshold would stop with a visible gap at t = 0
    return solve_bsvie(zeta, driver, noise, engine, beta_w=20.0, tol=1e-13, max_iter=120)


def martingale_family_solution(
    n_steps: int = 100, n_paths: int = 20_000, seed: int = 1234
) -> FamilyStatistics:
    """C5/C10 statistics of the family with terminal ``t_i * B(T)`` and zero
    generator.

    The family is carried as coefficients and reduced column by column as
    it is solved, so no ``n(n+1)/2 x N`` coefficient triangle is stored and
    its terminal is only read, never copied.
    """
    grid = build_time_grid(1.0, n_steps)
    levy = LevyMeasure.from_atoms([])
    noise = generate_noise(grid, levy, n_paths=n_paths, seed=seed, n_blocks=8)
    # without a generator the solve is one pass, one projection per node, so
    # a cached design would never be read again
    engine = CondExpEngine(
        FiltrationMode(mode="full"),
        RegressionSpec(degree=2, variables=("brownian",)),
        noise,
        cache_designs=False,
    )
    b_total = noise.d_brownian.sum(axis=1)
    zeta = grid.nodes[:, None] * b_total[None, :]
    return family_statistics(zeta, noise, engine)


def check_bsvie_solver(stats: FamilyStatistics) -> list[CheckResult]:
    """C5: resolvent value within 1% of e; the coefficient means of the
    martingale family ``stats`` (:func:`martingale_family_solution`) match
    the first-index node across the triangle (>= 99% of pairs within 3 SE,
    all within 5 SE)."""
    y0 = float(resolvent_solution(build_time_grid(1.0, 100)).y[0].mean())
    out = [_result("C5", "resolvent_value", y0, math.e, 0.01 * math.e,
                   "terminal 1, generator y, 1% tolerance")]
    n, dt = stats.grid.n_steps, stats.grid.dt
    # Means of fitted coefficients equal means of the regression targets, so
    # the sampling error comes from the target dispersion; for a terminal
    # t_i * B(T) the target t_i * B(s+dt) dB / dt has variance
    # t_i^2 (t_s/dt + 2), which gives the per-pair standard error.  Column
    # s_j holds the pairs (1..j, j); the pair (0, j) has zero mean and SE.
    t = stats.grid.nodes
    zs = np.concatenate([np.abs(stats.z_mean[j][1:] - t[1:j + 1])
                         / (t[1:j + 1] * np.sqrt((t[j] / dt + 2.0) / stats.n_paths))
                         for j in range(1, n)])
    frac3 = float(np.mean(zs <= 3.0))
    out.append(_result("C5", "martingale_z_within_3se", frac3, 1.0, 0.01,
                       f"{(zs > 3).sum()} of {zs.size} pairs beyond 3 SE"))
    out.append(_result("C5", "martingale_z_max_zscore", float(zs.max()), 0.0, 5.0,
                       "largest |mean - t_i| in SE units"))
    out.append(_result("C5", "martingale_zero_terminal_row", stats.zero_row_max, 0.0, 1e-12,
                       "terminal 0 * B(T) gives an exactly zero coefficient row"))
    return out


def check_resolvent_fixed_point(sol: BsvieSolution) -> list[CheckResult]:
    """C5 on any grid: the resolvent value ``sol`` (:func:`resolvent_solution`)
    at t = 0 within 0.1% of the discrete fixed point ``(1 - dt)^-n``, and
    between ``e^T`` and that fixed point, each widened by 0.1%."""
    grid = sol.grid
    y0 = float(sol.y[0].mean())
    fixed_point = (1.0 - grid.dt) ** (-grid.n_steps)
    exponential = math.exp(grid.horizon)
    low = min(exponential, fixed_point) * (1.0 - 1e-3)
    high = max(exponential, fixed_point) * (1.0 + 1e-3)
    return [
        _result("C5", "resolvent_fixed_point", y0, fixed_point, 1e-3 * fixed_point,
                "discrete resolvent identity (1 - dt)^-n"),
        _result("C5", "resolvent_vs_exponential", y0, (low + high) / 2, (high - low) / 2,
                "between e^T and (1 - dt)^-n, each widened by 0.1%"),
    ]


def check_contraction() -> list[CheckResult]:
    """C6: fixed-point distances decay monotonically (ratio <= 0.9) down to
    the deterministic noise floor for the Lipschitz-1 generator sin(y)."""
    grid = build_time_grid(1.0, 50)
    levy = LevyMeasure.from_atoms([])
    noise = generate_noise(grid, levy, n_paths=4096, seed=77, n_blocks=8)
    engine = CondExpEngine(
        FiltrationMode(mode="full"), RegressionSpec(degree=2, variables=("brownian",)), noise
    )
    b_total = noise.d_brownian.sum(axis=1)
    zeta = grid.nodes[:, None] * b_total[None, :]

    def driver(i, r, y_frozen, z, k, x):
        return np.sin(y_frozen)

    sol = solve_bsvie(zeta, driver, noise, engine, beta_w=20.0, tol=1e-13, max_iter=60)
    log = np.array(sol.iteration_log)
    floor = max(1e-10 * log[1], 1e-300) if log.size > 1 else 0.0
    ratios = []
    monotone = True
    for a, b in zip(log[1:], log[2:]):
        if a <= floor:
            break
        ratios.append(b / a)
        if b >= a:
            monotone = False
    worst = max(ratios) if ratios else 0.0
    return [
        _result("C6", "distances_monotone_from_pass2", float(monotone), 1.0, 0.0,
                f"log={['%.3e' % v for v in log]}"),
        _result("C6", "contraction_ratio", worst, 0.0, 0.9,
                f"{len(ratios)} ratios above the noise floor"),
    ]


# the C7 Brownian noise's grid; its square pairing needs the fine step
_BROWNIAN_GRID = build_time_grid(1.0, 200)
# the exact discrete value of each side (lhs, rhs) of each identity on its
# C7 grid, with w the time_quadrature_weights:
# * brownian_square: E[B(T)^2 sum_{i<n} B(t_i) dB_i] = 2 dt sum_{i<n} t_i
#   = 1 - dt, and sum_i w_i E[2 B(T) B(t_i)] = 2 sum_i w_i t_i = 1 - dt^2;
# * jump_square: the third central moment of Poisson(2), and 2 sum_i w_i;
# * the isometries: T = 1 and nu T = 2 on both sides
_EXACT_SIDES = {
    "brownian_square": (1.0 - _BROWNIAN_GRID.dt, 1.0 - _BROWNIAN_GRID.dt ** 2),
    "brownian_isometry": (1.0, 1.0),
    "jump_square": (2.0, 2.0),
    "jump_isometry": (2.0, 2.0),
}


def brownian_duality(
    names: tuple[str, ...], n_paths: int = 200_000, seed: int = 7
) -> list[DualityResult]:
    """Check the named identities on the C7 Brownian noise, streamed once.

    The noise has 200 steps.  ``names`` picks from ``brownian_square``
    (``F = B(T)^2``, ``psi = B``) and ``brownian_isometry`` (``F = B(T)``,
    ``psi = 1``).  The square pairing runs on this finer grid because its
    left-hand side (a discrete stochastic integral against the path level)
    carries an O(dt) bias of size dt that must stay inside the 3-SE band.
    Each piece of the noise is drawn once for all the named identities and
    dropped after its pass, so the memory grows with ``n_paths`` only.
    """
    identities = {
        "brownian_square": (WienerIntegral() ** 2, lambda i, b: b),
        "brownian_isometry": (WienerIntegral(), lambda i, b: 1.0),
    }
    no_jumps = LevyMeasure.from_atoms([])
    return verify_duality_brownian(
        [(name, *identities[name]) for name in names], _BROWNIAN_GRID, no_jumps,
        n_paths, seed, math.gcd(n_paths, 8),
    )


def jump_duality(
    names: tuple[str, ...], n_paths: int = 200_000, seed: int = 8
) -> list[DualityResult]:
    """Check the named identities on the C7 jump noise, streamed once.

    The noise has 100 steps and one atom (size 1, weight 2); C7 draws it at
    seed 8, one past the Brownian noise's.  ``names`` picks from
    ``jump_square`` (``F = N~(T)^2``) and ``jump_isometry`` (``F = N~(T)``),
    both with the unit integrand.  As in :func:`brownian_duality`, each piece
    is drawn once for all the named identities.
    """
    identities = {
        "jump_square": JumpIntegral() ** 2,
        "jump_isometry": JumpIntegral(),
    }
    one_atom = LevyMeasure(sizes=np.array([1.0]), weights=np.array([2.0]))
    return verify_duality_jump(
        [(name, identities[name], lambda i, q, c: 1.0) for name in names],
        build_time_grid(1.0, 100), one_atom, n_paths, seed, math.gcd(n_paths, 8),
    )


def check_duality(n_paths: int = 200_000) -> list[CheckResult]:
    """C7: both sides of the two integration-by-parts identities.

    Each noise is streamed at its default seed in pieces of a few chunks of
    paths, so neither is ever held whole: the stage's memory grows with
    ``n_paths``, not ``n_steps x n_paths``.  The Brownian stage holds one
    piece of normals per worker; the jump stage holds one piece of counts
    per worker and no normals, since neither of its functionals reads them.
    Each pass sums ``B(T)`` or ``Ñ(T)`` once per piece and reads ``F`` and
    its gradient in closed form, so the values do not depend on how the
    paths are split into blocks and pieces.
    """
    (res_b,) = brownian_duality(("brownian_square",), n_paths)
    (res_j,) = jump_duality(("jump_square",), n_paths)
    return [
        _result("C7", "brownian_lhs", res_b.lhs, 1.0, 3.0 * res_b.se_lhs),
        _result("C7", "brownian_rhs", res_b.rhs, 1.0, 3.0 * res_b.se_rhs),
        _result("C7", "jump_lhs", res_j.lhs, 2.0, 3.0 * res_j.se_lhs),
        _result("C7", "jump_rhs", res_j.rhs, 2.0, 3.0 * res_j.se_rhs),
    ]


def check_sides_agree(results: list[DualityResult]) -> list[CheckResult]:
    """C7 without the closed forms: the two sides of each identity in
    ``results`` within 3 of their standard errors taken in quadrature."""
    return [_result("C7", f"{r.name}_sides_agree", r.lhs, r.rhs, 3.0 * r.combined_se)
            for r in results]


def check_exact_sides(results: list[DualityResult]) -> list[CheckResult]:
    """C7 against the closed forms: each side of each identity in ``results``
    within 3 of its own standard errors of its exact discrete value.

    A sign error in an integrand flips both sides together, which
    :func:`check_sides_agree` cannot see.  Each band adds 1e-12 of the exact
    value: an isometry's right-hand side is one sum on every path, so its
    standard error is rounding.
    """
    rows = []
    for r in results:
        lhs, rhs = _EXACT_SIDES[r.name]
        rows += [_result("C7", f"{r.name}_lhs", r.lhs, lhs, 3.0 * r.se_lhs + 1e-12 * lhs),
                 _result("C7", f"{r.name}_rhs", r.rhs, rhs, 3.0 * r.se_rhs + 1e-12 * rhs)]
    return rows


def check_forward_solver(scenario: ScenarioSpec, log_noise: _LogNoiseLeg) -> list[CheckResult]:
    """C8: terminal mean on the reference scenario, plus first-order shrink of
    the weak error on a genuinely two-time-kernel variant.

    The unit rate's ``log X(T)`` is the control-free leg's terminal row
    shifted by the rate's spend, ``L_n - C_n`` (see :mod:`control`), so C8
    reads the pass :func:`run_acceptance` streams for C2-C4.  If the shifted
    minimum reaches the positivity floor, the spend names the breach, as
    ``simulate_fsvie`` would."""
    grid = scenario.grid
    spent = log_noise.spend(scenario, ControlFn.constant(1.0, grid).step_integrals(grid))
    mean, se = mean_se(np.exp(log_noise.terminal - spent[-1]))
    ref = math.exp(-0.95)
    out = [_result("C8", "terminal_mean", mean, ref, 3.0 * se, f"se={se:.2e}")]

    errors = []
    for n in (25, 50, 100, 200):
        spec = validate_scenario({
            "grid": {"horizon": 1.0, "n_steps": n},
            "initial": 1.0,
            "gamma": 0.0,
            "alpha_kernel": {"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
            "beta_kernel": {"kind": "constant", "value": 0.0},
            "levy": {"atoms": []},
            "pi_kernels": [],
            "filtration": {"mode": "trivial"},
            "mc": {"n_paths": 1, "seed": 3, "n_blocks": 1},
        })
        nz = generate_noise(spec.grid, spec.levy, n_paths=1, seed=3, n_blocks=1)
        ctrl = ControlFn.constant(1.0, spec.grid)
        sim = simulate_fsvie(spec, nz, ctrl)
        oracle = forward_mean_oracle(spec, ctrl)
        errors.append(abs(float(sim.values[0, -1]) - float(oracle[-1])))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(1.5 <= r <= 2.7 for r in ratios) and all(
        errors[i] > errors[i + 1] for i in range(len(errors) - 1)
    )
    out.append(_result(
        "C8", "weak_error_first_order", float(ok), 1.0, 0.0,
        f"errors={['%.3e' % e for e in errors]} ratios={['%.2f' % r for r in ratios]}",
    ))
    return out


def check_terminal_mean(
    scenario: ScenarioSpec, fwd: ForwardPaths, control: ControlFn
) -> list[CheckResult]:
    """C8 on any scenario: the terminal mean of the paths ``fwd`` of
    ``control`` within 4 SE of the deterministic mean oracle, widened on
    two-time kernels by 2% of the oracle for the scheme's first-order
    discretization error."""
    oracle = float(forward_mean_oracle(scenario, control)[-1])
    mean, se = mean_se(fwd.row(fwd.last_node))
    tol = 4.0 * se + (0.0 if scenario.time_invariant else 0.02 * abs(oracle))
    return [_result("C8", "terminal_mean_vs_oracle", mean, oracle, tol, f"se={se:.2e}")]


def check_adjoint_reduction(scenario: ScenarioSpec) -> list[CheckResult]:
    """C9: the product-adjoint backward equation (generator lambda, terminal
    zero) re-solved with the generic solver matches the quadrature curve."""
    out = []
    for gamma_val in (0.0, 1.0):
        grid = scenario.grid
        gamma = np.full(grid.n_steps + 1, gamma_val)
        lam = discount_curve(gamma, grid, scenario.convention)
        ref = remaining_value_curve(gamma, grid, scenario.convention)
        levy = LevyMeasure.from_atoms([])
        noise = generate_noise(grid, levy, n_paths=2048, seed=5, n_blocks=8)
        engine = CondExpEngine(
            FiltrationMode(mode="full"), RegressionSpec(degree=2, variables=("brownian",)), noise
        )

        def driver(i, t, x, y, z, k, _lam=lam):
            return np.full(y.shape[0], _lam[i])

        sol = solve_bsde(np.zeros(noise.n_paths), driver, noise, engine)
        gap = float(np.max(np.abs(sol.y.mean(axis=0) - ref)))
        out.append(_result(
            "C9", f"product_adjoint_gamma_{gamma_val:g}", gap, 0.0, 0.01 * float(ref[0]),
            "max node gap vs quadrature curve",
        ))
    return out


def check_z_time_derivative(stats: FamilyStatistics) -> list[CheckResult]:
    """C10: finite-difference first-index derivative norm near T^2/2, read
    off the martingale family ``stats``.

    The value depends on the grid at a fixed path count: the regression noise
    in each Z coefficient enters the first-index difference divided by dt, so
    the estimate grows as the grid is refined.  On the martingale family it
    reads 0.519 at 100 steps x 20k paths but 0.589 at 200 steps x 10k, which
    is outside the 0.5 +- 0.05 band, so the band is calibrated to the
    family's default 100 x 20k only.  At 400 steps x 20k it reads 0.558; the
    family is carried as coefficients, so that size runs in a 231 MB peak
    RSS (the noise and the terminal) and 0.43 s on a 2-vCPU machine, where
    its coefficient triangle alone would take 12.8 GB.
    """
    return [_result("C10", "z_time_derivative_norm", stats.z_derivative_norm, 0.5, 0.05)]


def run_acceptance(scenario: ScenarioSpec) -> list[CheckResult]:
    """Run the full acceptance suite against the reference scenario.

    The main noise is streamed once, into the control-free log-noise leg
    that C2-C4 and C8 all read: every control they evaluate is a shift of
    it, and every value it keeps is per path or a minimum, so the noise is
    never held whole, and a breach of the positivity floor is named off the
    leg without drawing it again.  C7 streams its two noises in pieces the
    same way.  The C5 family, C6 and C9 draw their smaller bundles whole.
    """
    require_reference_scenario(scenario)
    # C2-C4 and C8 evaluate every control as a shift of one control-free leg
    log_noise = _streamed_log_noise_leg(scenario)
    results: list[CheckResult] = []
    results += check_closed_form_optimum(scenario)
    results += check_value_oracle(scenario, log_noise)
    results += check_optimality_ranking(scenario, log_noise)
    results += check_necessary_mp(scenario, log_noise)
    # the last reader of the main noise, reported in criterion order
    forward = check_forward_solver(scenario, log_noise)
    del log_noise
    martingale = martingale_family_solution()
    results += check_bsvie_solver(martingale)
    results += check_contraction()
    results += check_duality()
    results += forward
    results += check_adjoint_reduction(scenario)
    results += check_z_time_derivative(martingale)
    return results
