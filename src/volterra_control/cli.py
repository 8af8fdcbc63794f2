"""Command-line interface.

Subcommands
-----------
* ``simulate-forward``     -- forward paths, mean/quantile curve CSV.
* ``solve-bsvie``          -- resolvent fixed-point solve on the config grid.
* ``evaluate-utility``     -- Monte Carlo objective with oracle cross-check.
* ``optimal-consumption``  -- closed-form rate and multiplier curves.
* ``check-mp``             -- maximum-principle checks C1, C3, C4 (reference
  scenario only).
* ``verify-duality``       -- the C7 identities plus two isometries.
* ``run-acceptance``       -- the full acceptance suite.

Every run writes CSV outputs plus a JSON run report (emitted even when a
check fails).  Exit codes: 0 all checks pass, 2 validation/usage error,
3 numerical check failure, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import acceptance as acc
from .bsvie import ConvergenceError, diagonal_rows, iteration_rows
from .controls import ControlFn
from .control import (
    _log_noise_leg,
    build_adjoint_state,
    consumption_rows,
    log_utility_oracle,
    performance,
)
from .fsvie import PositivityBreachError, forward_mean_oracle, mean_quantile_rows, simulate_fsvie
from .malliavin import duality_rows
from .model import ScenarioSpec, ValidationError, mean_se, validate_scenario
from .paths import generate_noise

__all__ = ["main", "run", "load_config", "RunReport"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3
EXIT_NO_CONVERGENCE = 4
_ERROR_EXIT_CODES = {
    ValidationError: EXIT_VALIDATION,
    PositivityBreachError: EXIT_CHECK_FAILED,
    ConvergenceError: EXIT_NO_CONVERGENCE,
}


@dataclass
class RunReport:
    subcommand: str
    scenario_hash: str
    seed: int
    wall_time_s: float = 0.0
    outputs: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    nan_values: list = field(default_factory=list)
    error: str = ""

    def add_check(self, name, value, reference, tolerance):
        """Record a check; it passes when ``|value - reference| <= tolerance``."""
        self.checks.append({
            "name": name,
            "value": float(value),
            "reference": float(reference),
            "tolerance": float(tolerance),
            "passed": bool(abs(value - reference) <= tolerance),
        })

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


# --------------------------------------------------------------------------- #
# Config handling
# --------------------------------------------------------------------------- #

def load_config(path: str) -> ScenarioSpec:
    """Parse and validate a JSON scenario file; ``validate_scenario`` fills
    the defaults."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc.strerror}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: top-level JSON object expected")
    return validate_scenario(raw)


def _scenario_dict(spec: ScenarioSpec) -> dict:
    def kernel_dict(k):
        if k.kind == "constant":
            return {"kind": "constant", "value": k.value}
        if k.kind == "exp_decay":
            return {"kind": "exp_decay", "amplitude": k.amplitude, "rate": k.rate}
        return {"kind": "table", "n": k.table_n, "values": list(map(float, k.table))}

    return {
        "grid": {"horizon": spec.grid.horizon, "n_steps": spec.grid.n_steps},
        "initial": float(spec.initial) if np.isscalar(spec.initial)
        else list(map(float, spec.initial)),
        "alpha_kernel": kernel_dict(spec.alpha),
        "beta_kernel": kernel_dict(spec.beta),
        "pi_kernels": [kernel_dict(k) for k in spec.pi_kernels],
        "levy": {"atoms": [[float(e), float(w)] for e, w in
                           zip(spec.levy.sizes, spec.levy.weights)]},
        "gamma": list(map(float, spec.gamma)),
        "filtration": {"mode": spec.filtration.mode, "delay": spec.filtration.delay},
        "gamma_sign_convention": spec.convention,
        "mc": {"n_paths": spec.mc.n_paths, "seed": spec.mc.seed, "n_blocks": spec.mc.n_blocks},
        "regression": {"degree": spec.regression.degree,
                       "state": list(spec.regression.variables)},
    }


def scenario_hash(spec: ScenarioSpec) -> str:
    canon = json.dumps(_scenario_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# CSV
# --------------------------------------------------------------------------- #

def _format_cell(value) -> tuple[str, bool]:
    """17-significant-digit reals, RFC-4180 quoting; returns (text, is_nan)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan", True
        return f"{value:.17g}", False
    text = str(value)
    if any(ch in text for ch in (',', '"', "\n")):
        text = '"' + text.replace('"', '""') + '"'
    return text, False


def emit_csv(rows: list[dict], path: str) -> list[tuple[int, str]]:
    """Write rectangular rows; header always present; '.' decimal separator.

    Returns the positions of any NaN cells so callers can flag them.
    """
    path = Path(path)
    nan_cells: list[tuple[int, str]] = []
    if rows:
        header = list(rows[0].keys())
        for r in rows:
            if list(r.keys()) != header:
                raise ValidationError("CSV rows must share one column set")
    else:
        header = []
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        cells = []
        for key in header:
            text, is_nan = _format_cell(row[key])
            if is_nan:
                nan_cells.append((i, key))
            cells.append(text)
        lines.append(",".join(cells))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\r\n".join(lines) + "\r\n")
    return nan_cells


def _write_rows(report: RunReport, out_dir: Path, name: str, rows: list[dict]) -> None:
    path = out_dir / name
    nan_cells = emit_csv(rows, str(path))
    report.outputs.append(str(path))
    for i, key in nan_cells:
        report.nan_values.append({"file": name, "row": i, "column": key})


def _control_number(text: str) -> float:
    """The number after the colon of ``constant:VALUE`` or ``theta_cstar:THETA``."""
    value = text.split(":", 1)[1]
    try:
        return float(value)
    except ValueError:
        raise ValidationError(f"control {text!r}: {value!r} is not a number") from None


def _parse_control(text: str, spec: ScenarioSpec) -> ControlFn:
    if text.startswith("constant:"):
        return ControlFn.constant(_control_number(text), spec.grid)
    if text == "cstar":
        return ControlFn.theta_cstar(1.0, spec.gamma, spec.convention)
    if text.startswith("theta_cstar:"):
        return ControlFn.theta_cstar(_control_number(text), spec.gamma, spec.convention)
    raise ValidationError(
        f"unknown control {text!r}; use constant:VALUE, cstar or theta_cstar:THETA"
    )


# --------------------------------------------------------------------------- #
# Subcommand handlers (each returns an exit code and fills the report)
# --------------------------------------------------------------------------- #

def _cmd_simulate_forward(spec, args, report, out_dir):
    control = _parse_control(args.control, spec)
    noise = generate_noise(spec.grid, spec.levy, spec.mc.n_paths, spec.mc.seed, spec.mc.n_blocks)
    fwd = simulate_fsvie(spec, noise, control)
    _write_rows(report, out_dir, "forward_curve.csv", mean_quantile_rows(fwd))
    oracle = forward_mean_oracle(spec, control)
    mean, se = mean_se(fwd.values[:, -1])
    # smoke tolerance: statistical band plus a first-order discretization allowance
    tol = 4.0 * se + (0.0 if spec.time_invariant else 0.02 * abs(oracle[-1]))
    report.add_check("terminal_mean_vs_oracle", mean, float(oracle[-1]), tol)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_evaluate_utility(spec, args, report, out_dir):
    control = _parse_control(args.control, spec)
    noise = generate_noise(spec.grid, spec.levy, spec.mc.n_paths, spec.mc.seed, spec.mc.n_blocks)
    res = performance(spec, control, noise)
    rows = [{"j_mc": res.j, "j_se": res.se}]
    if spec.time_invariant:
        oracle = log_utility_oracle(spec, control)
        rows[0]["j_oracle"] = oracle
        tol = 5.0 * res.se + 1e-4
        report.add_check("utility_vs_oracle", res.j, oracle, tol)
    _write_rows(report, out_dir, "utility.csv", rows)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_optimal_consumption(spec, args, report, out_dir):
    _write_rows(report, out_dir, "c_star.csv", consumption_rows(spec))
    adj = build_adjoint_state(spec)
    report.add_check("first_order_condition", adj.foc_residual(), 0.0, 1e-12)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_solve_bsvie(spec, args, report, out_dir):
    sol = acc.resolvent_solution(spec.grid)
    _write_rows(report, out_dir, "iteration_log.csv", iteration_rows(sol))
    _write_rows(report, out_dir, "bsvie_diagonal.csv", diagonal_rows(sol))
    y0 = float(sol.y[0].mean())
    fixed_point = (1.0 - spec.grid.dt) ** (-spec.grid.n_steps)  # discrete resolvent identity
    report.add_check("resolvent_fixed_point", y0, fixed_point, 1e-3 * fixed_point)
    # the discrete fixed point sits above e^T by the scheme's first-order gap
    exponential = math.exp(spec.grid.horizon)
    band = abs(fixed_point - exponential) + 1e-3 * exponential
    report.add_check("resolvent_vs_exponential", y0, exponential, band)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _write_checks(report, out_dir, name, results) -> int:
    """Print, report and tabulate acceptance check records."""
    rows = []
    for r in results:
        print(r.line())
        rows.append({
            "criterion": r.criterion, "name": r.name, "value": r.value,
            "reference": r.reference, "tolerance": r.tolerance,
            "passed": int(r.passed), "detail": r.detail,
        })
        report.add_check(f"{r.criterion}:{r.name}", r.value, r.reference, r.tolerance)
    _write_rows(report, out_dir, name, rows)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_check_mp(spec, args, report, out_dir):
    acc.require_reference_scenario(spec)
    noise = generate_noise(spec.grid, spec.levy, spec.mc.n_paths, spec.mc.seed, spec.mc.n_blocks)
    # every control of C3 and C4 is a shift of one control-free leg
    log_noise = _log_noise_leg(spec, noise)
    _write_rows(report, out_dir, "c_star.csv", consumption_rows(spec))
    results = (acc.check_closed_form_optimum(spec)
               + acc.check_optimality_ranking(spec, log_noise)
               + acc.check_necessary_mp(spec, log_noise))
    return _write_checks(report, out_dir, "mp_checks.csv", results)


def _cmd_verify_duality(args, report, out_dir):
    # each noise is streamed one block at a time, drawn once for both of its
    # identities; memory grows with the path count, not steps x paths
    n_paths = 200_000 if args.paths is None else args.paths
    results = (
        acc.brownian_duality(("brownian_square", "brownian_isometry"), n_paths, report.seed)
        + acc.jump_duality(("jump_square", "jump_isometry"), n_paths, report.seed + 1)
    )
    _write_rows(report, out_dir, "duality.csv", duality_rows(results))
    checks = [acc._result("C7", f"{r.name}_sides_agree", r.lhs, r.rhs, 3.0 * r.combined_se)
              for r in results]
    return _write_checks(report, out_dir, "duality_checks.csv", checks)


def _cmd_run_acceptance(spec, args, report, out_dir):
    return _write_checks(report, out_dir, "acceptance_results.csv", acc.run_acceptance(spec))


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volterra-control",
        description="Simulation and optimal control of stochastic Volterra cash-flow models",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = [
        "simulate-forward", "solve-bsvie", "evaluate-utility",
        "optimal-consumption", "check-mp", "verify-duality", "run-acceptance",
    ]
    for name in names:
        p = sub.add_parser(name)
        if name != "verify-duality":
            p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--paths", type=int, default=None, help="override the path count")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--convention", choices=["discounting", "paper_ode"], default=None)
        if name in ("simulate-forward", "evaluate-utility"):
            p.add_argument("--control", default="constant:1.0",
                           help="constant:VALUE | cstar | theta_cstar:THETA")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    report = RunReport(subcommand=args.subcommand, scenario_hash="", seed=-1)
    started = time.perf_counter()
    code = EXIT_OK
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"--out {out_dir}: {exc.strerror}") from exc
        spec = None
        if args.subcommand != "verify-duality":
            spec = load_config(args.config)
            if args.seed is not None:
                spec = spec.with_mc(seed=args.seed)
            if args.paths is not None:
                spec = spec.with_mc(n_paths=args.paths,
                                    n_blocks=math.gcd(args.paths, spec.mc.n_blocks))
            if args.convention is not None:
                spec = validate_scenario(replace(spec, convention=args.convention))
            report.scenario_hash = scenario_hash(spec)
            report.seed = spec.mc.seed
        else:
            report.seed = args.seed if args.seed is not None else 7
            if report.seed < 0:
                raise ValidationError(f"seed must be >= 0, got {report.seed}")

        handler = {
            "simulate-forward": lambda: _cmd_simulate_forward(spec, args, report, out_dir),
            "solve-bsvie": lambda: _cmd_solve_bsvie(spec, args, report, out_dir),
            "evaluate-utility": lambda: _cmd_evaluate_utility(spec, args, report, out_dir),
            "optimal-consumption": lambda: _cmd_optimal_consumption(spec, args, report, out_dir),
            "check-mp": lambda: _cmd_check_mp(spec, args, report, out_dir),
            "verify-duality": lambda: _cmd_verify_duality(args, report, out_dir),
            "run-acceptance": lambda: _cmd_run_acceptance(spec, args, report, out_dir),
        }[args.subcommand]
        code = handler()
    except tuple(_ERROR_EXIT_CODES) as exc:
        report.error = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        code = next(c for cls, c in _ERROR_EXIT_CODES.items() if isinstance(exc, cls))
    finally:
        report.wall_time_s = time.perf_counter() - started
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "report.json").write_text(json.dumps(asdict(report), indent=2) + "\n")
        except OSError:
            pass
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
