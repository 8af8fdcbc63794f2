"""Command-line interface.

Subcommands
-----------
* ``simulate-forward``     -- forward paths, mean/quantile curve CSV (C8).
* ``solve-bsvie``          -- resolvent fixed-point solve on the config grid (C5).
* ``evaluate-utility``     -- Monte Carlo objective against its exact discrete
                              mean (C2), with the quadrature oracle's gap.
* ``optimal-consumption``  -- closed-form rate and multiplier curves (C1).
* ``check-mp``             -- maximum-principle checks C1, C3, C4 (reference
  scenario only).
* ``verify-duality``       -- the C7 identities plus two isometries.
* ``run-acceptance``       -- the full acceptance suite.

Every check comes from :mod:`acceptance`.  A handler returns its tables and
its checks; :func:`run` alone writes the tables, prints one ``PASS``/``FAIL``
line per check, writes the checks table and the JSON run report (emitted
even when a check fails) and sets the exit code: 0 all checks pass,
2 validation/usage error, 3 numerical check failure, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import acceptance as acc
from .bsvie import BsvieSolution, ConvergenceError
from .controls import ControlFn
from .control import (
    AdjointState,
    _streamed_log_noise_leg,
    build_adjoint_state,
    log_utility_oracle,
    performance,
)
from .fsvie import ForwardPaths, PositivityBreachError, simulate_fsvie
from .malliavin import DualityResult
from .model import CONVENTIONS, ScenarioSpec, ValidationError, mean_se, validate_scenario
from .paths import generate_noise

__all__ = ["main", "run", "load_config", "RunReport"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3
EXIT_NO_CONVERGENCE = 4
_ERROR_EXIT_CODES = {
    ValidationError: EXIT_VALIDATION,
    MemoryError: EXIT_VALIDATION,  # a request larger than memory
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
    return validate_scenario(raw)


def scenario_hash(spec: ScenarioSpec) -> str:
    """The first 16 hex digits of the SHA-256 of every field of ``spec``, as
    canonical JSON (node tables as lists)."""
    canon = json.dumps(asdict(spec), sort_keys=True, separators=(",", ":"),
                       default=np.ndarray.tolist)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# CSV
# --------------------------------------------------------------------------- #

def emit_csv(
    rows: list[dict], path: str, columns: list[str] | None = None
) -> list[tuple[int, str]]:
    """Write rectangular rows; header always present; '.' decimal separator.

    Reals are written to 17 significant digits, and cells are quoted as
    RFC 4180 asks.  The header is ``columns`` or, without them, the first
    row's keys, so a table whose layout is fixed keeps its header when it
    has no rows.  Returns the positions of any NaN cells so callers can
    flag them.
    """
    path = Path(path)
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    header = list(columns)
    for r in rows:
        if list(r.keys()) != header:
            raise ValidationError("CSV rows must share one column set")
    nan_cells = [(i, key) for i, row in enumerate(rows) for key in header
                 if isinstance(row[key], float) and math.isnan(row[key])]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as out:
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row.values()]
                         for row in rows)
    return nan_cells


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
# Output tables
# --------------------------------------------------------------------------- #

def _mean_quantile_rows(fwd: ForwardPaths) -> list[dict]:
    """Per-node summary rows ``{t, mean, se, q05, q50, q95}`` of the forward
    state, read one node row at a time."""
    rows = []
    for i, ti in enumerate(fwd.grid.nodes[: fwd.last_node + 1]):
        x = fwd.row(i)
        mean, se = mean_se(x)
        q05, q50, q95 = np.quantile(x, [0.05, 0.5, 0.95])
        rows.append({"t": ti, "mean": mean, "se": se,
                     "q05": float(q05), "q50": float(q50), "q95": float(q95)})
    return rows


def _consumption_rows(adj: AdjointState) -> list[dict]:
    """Rows ``{t, lambda, P, c_star}`` over the left nodes."""
    return [
        {"t": float(adj.grid.nodes[i]), "lambda": float(adj.lam[i]),
         "P": float(adj.big_p[i]), "c_star": float(adj.cstar[i])}
        for i in range(adj.grid.n_steps)
    ]


def _iteration_rows(sol: BsvieSolution) -> list[dict]:
    return [{"pass": p + 1, "weighted_distance": d} for p, d in enumerate(sol.iteration_log)]


def _diagonal_rows(sol: BsvieSolution) -> list[dict]:
    return [{"t": float(t), "y_mean": float(sol.y[i].mean())} for i, t in enumerate(sol.grid.nodes)]


def _duality_rows(results: list[DualityResult]) -> list[dict]:
    return [{"identity": r.name, "lhs": r.lhs, "rhs": r.rhs, "se_lhs": r.se_lhs,
             "se_rhs": r.se_rhs, "gap_over_se": abs(r.lhs - r.rhs) / r.combined_se
             if r.combined_se > 0 else 0.0} for r in results]


# --------------------------------------------------------------------------- #
# Subcommand handlers: each returns its tables (file name -> rows) and the
# acceptance checks it ran; ``run`` writes, prints and judges them all
# --------------------------------------------------------------------------- #

def _main_noise(spec):
    return generate_noise(spec.grid, spec.levy, spec.mc.n_paths, spec.mc.seed, spec.mc.n_blocks)


def _cmd_simulate_forward(spec, args):
    control = _parse_control(args.control, spec)
    fwd = simulate_fsvie(spec, _main_noise(spec), control)
    return ({"forward_curve.csv": _mean_quantile_rows(fwd)},
            acc.check_terminal_mean(spec, fwd, control))


def _cmd_evaluate_utility(spec, args):
    control = _parse_control(args.control, spec)
    # a time-invariant scenario streams its control-free leg, so the main
    # noise is never formed whole; two-time kernels simulate on the bundle
    noise = _streamed_log_noise_leg(spec) if spec.time_invariant else _main_noise(spec)
    res = performance(spec, control, noise)
    checks = acc.check_utility_exact_mean(spec, control, res)
    row = {"j_mc": res.j, "j_se": res.se}
    if checks:
        # the continuous oracle prices the control's continuous profile, not
        # its grid values: its gap is reported, not gated
        oracle = log_utility_oracle(spec, control)
        row.update(j_exact=checks[0].reference, j_oracle=oracle, oracle_gap=res.j - oracle)
    return {"utility.csv": [row]}, checks


def _cmd_optimal_consumption(spec, args):
    adj = build_adjoint_state(spec)
    return {"c_star.csv": _consumption_rows(adj)}, acc.check_first_order_condition(adj)


def _cmd_solve_bsvie(spec, args):
    sol = acc.resolvent_solution(spec.grid)
    tables = {"iteration_log.csv": _iteration_rows(sol), "bsvie_diagonal.csv": _diagonal_rows(sol)}
    return tables, acc.check_resolvent_fixed_point(sol)


def _cmd_check_mp(spec, args):
    acc.require_reference_scenario(spec)
    # every control of C3 and C4 is a shift of one control-free leg, summed
    # in one streamed pass: the main noise is never formed whole
    log_noise = _streamed_log_noise_leg(spec)
    checks = (acc.check_closed_form_optimum(spec)
              + acc.check_optimality_ranking(spec, log_noise)
              + acc.check_necessary_mp(spec, log_noise))
    return {"c_star.csv": _consumption_rows(build_adjoint_state(spec))}, checks


def _cmd_verify_duality(spec, args):
    # each noise is streamed in pieces, drawn once for both of its
    # identities; memory grows with the path count, not steps x paths
    n_paths = 200_000 if args.paths is None else args.paths
    results = (
        acc.brownian_duality(("brownian_square", "brownian_isometry"), n_paths, args.seed)
        + acc.jump_duality(("jump_square", "jump_isometry"), n_paths, args.seed + 1)
    )
    checks = acc.check_sides_agree(results) + acc.check_exact_sides(results)
    return {"duality.csv": _duality_rows(results)}, checks


def _cmd_run_acceptance(spec, args):
    return {}, acc.run_acceptance(spec)


# the checks table each subcommand writes, in the acceptance_results.csv layout
_CHECKS_CSV = {
    "simulate-forward": "forward_checks.csv",
    "solve-bsvie": "bsvie_checks.csv",
    "evaluate-utility": "utility_checks.csv",
    "optimal-consumption": "consumption_checks.csv",
    "check-mp": "mp_checks.csv",
    "verify-duality": "duality_checks.csv",
    "run-acceptance": "acceptance_results.csv",
}


def _write(report: RunReport, out_dir: Path, tables: dict, checks: list) -> int:
    """Print one line per check, record the checks and write every table, the
    checks table last; the exit code says whether every check passed."""
    for r in checks:
        print(r.line())
        report.checks.append({"name": f"{r.criterion}:{r.name}", "value": r.value,
                              "reference": r.reference, "tolerance": r.tolerance,
                              "passed": r.passed})
    check_rows = [{**asdict(r), "passed": int(r.passed)} for r in checks]
    checks_table = _CHECKS_CSV[report.subcommand]
    for name, rows in {**tables, checks_table: check_rows}.items():
        path = out_dir / name
        columns = [f.name for f in fields(acc.CheckResult)] if name == checks_table else None
        for i, key in emit_csv(rows, str(path), columns):
            report.nan_values.append({"file": name, "row": i, "column": key})
        report.outputs.append(str(path))
    return EXIT_OK if all(r.passed for r in checks) else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

# the subcommands that read no Monte Carlo field, and so take no --seed or --paths
_READS_NO_MC = ("optimal-consumption", "solve-bsvie")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volterra-control",
        description="Simulation and optimal control of stochastic Volterra cash-flow models",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _CHECKS_CSV:
        p = sub.add_parser(name)
        if name != "verify-duality":  # the one subcommand that reads no scenario
            p.add_argument("--config", required=True, help="scenario JSON file")
            p.add_argument("--convention", choices=CONVENTIONS, default=None)
        if name not in _READS_NO_MC:
            p.add_argument("--seed", type=int, default=7 if name == "verify-duality" else None,
                           help="override the config seed")
            p.add_argument("--paths", type=int, default=None, help="override the path count")
        p.add_argument("--out", default="out", help="output directory")
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
            seed, n_paths = getattr(args, "seed", None), getattr(args, "paths", None)
            if seed is not None:
                spec = spec.with_mc(seed=seed)
            if n_paths is not None:
                spec = spec.with_mc(n_paths=n_paths, n_blocks=math.gcd(n_paths, spec.mc.n_blocks))
            if args.convention is not None:
                spec = replace(spec, convention=args.convention)
            report.scenario_hash = scenario_hash(spec)
            report.seed = spec.mc.seed
        else:
            report.seed = args.seed
            if report.seed < 0:
                raise ValidationError(f"seed must be >= 0, got {report.seed}")
        handler = globals()["_cmd_" + args.subcommand.replace("-", "_")]
        # an overflow is inf or nan, which a check (exit 3) or solver (4) rejects
        with np.errstate(over="ignore", invalid="ignore"):
            code = _write(report, out_dir, *handler(spec, args))
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
