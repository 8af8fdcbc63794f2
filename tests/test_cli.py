import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control.acceptance import (
    CheckResult,
    brownian_duality,
    jump_duality,
    resolvent_solution,
)
from volterra_control.bsde import _utility_weights
from volterra_control.cli import _scenario_dict, emit_csv, load_config, run, scenario_hash
from volterra_control.control import _streamed_log_noise_leg, build_adjoint_state, performance
from volterra_control.controls import ControlFn
from volterra_control.fsvie import (
    POSITIVITY_FLOOR,
    _log_row_means,
    forward_mean_oracle,
    simulate_fsvie,
)
from volterra_control.model import ValidationError, mean_se, validate_scenario
from volterra_control.paths import generate_noise

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "s0.json"
CHECKS_HEADER = "criterion,name,value,reference,tolerance,passed,detail"


def write_config(tmp_path, **overrides):
    raw = json.loads(CONFIG.read_text())
    raw.update(overrides)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(raw))
    return str(p)


# --------------------------------------------------------------------------- #
# CSV writer
# --------------------------------------------------------------------------- #

def test_emit_csv_rows_and_header(tmp_path):
    path = tmp_path / "x.csv"
    emit_csv([{"t": 0.0, "c": 1.0}, {"t": 0.5, "c": 2.0}], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,c"
    assert len(lines) == 3
    assert lines[2].split(",")[1] == "2"


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text().strip() == ""


def test_emit_csv_17_digit_reals(tmp_path):
    path = tmp_path / "x.csv"
    emit_csv([{"v": 1.0 / 3.0}], str(path))
    assert "0.33333333333333331" in path.read_text()


def test_emit_csv_flags_nan(tmp_path):
    path = tmp_path / "x.csv"
    nan_cells = emit_csv([{"v": float("nan")}], str(path))
    assert "nan" in path.read_text()
    assert nan_cells == [(0, "v")]


def test_emit_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValidationError):
        emit_csv([{"a": 1}, {"b": 2}], str(tmp_path / "x.csv"))


# --------------------------------------------------------------------------- #
# config loading
# --------------------------------------------------------------------------- #

def test_load_config_defaults(tmp_path):
    raw = json.loads(CONFIG.read_text())
    del raw["gamma_sign_convention"]
    del raw["regression"]
    p = tmp_path / "min.json"
    p.write_text(json.dumps(raw))
    spec = load_config(str(p))
    assert spec.convention == "discounting"
    assert spec.regression.degree == 2
    assert spec.mc.n_blocks == 8


def test_load_config_missing_grid_names_field(tmp_path):
    raw = json.loads(CONFIG.read_text())
    del raw["grid"]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match="grid"):
        load_config(str(p))


def test_load_config_ambiguous_kernel(tmp_path):
    path = write_config(tmp_path,
                        alpha_kernel={"kind": "constant", "value": 1.0, "table": [0.0]})
    with pytest.raises(ValidationError, match="ambiguous"):
        load_config(path)


def test_scenario_hash_tracks_semantic_changes(tmp_path):
    base = load_config(str(CONFIG))
    assert scenario_hash(base) == scenario_hash(load_config(str(CONFIG)))
    changed = load_config(write_config(tmp_path, initial=2.0))
    assert scenario_hash(changed) != scenario_hash(base)
    reseeded = base.with_mc(seed=43)
    assert scenario_hash(reseeded) != scenario_hash(base)


def _raw_kernel(kind, rng, n_steps, scale):
    if kind == "constant":
        return {"kind": "constant", "value": scale * rng.uniform(-1.0, 1.0)}
    if kind == "exp_decay":
        return {"kind": "exp_decay", "amplitude": scale * rng.uniform(-1.0, 1.0),
                "rate": rng.uniform(0.0, 3.0)}
    size = (n_steps + 1) * (n_steps + 2) // 2
    return {"kind": "table", "values": (scale * rng.uniform(-1.0, 1.0, size)).tolist()}


_KINDS = st.sampled_from(["constant", "exp_decay", "table"])


@settings(max_examples=40, deadline=None)
@given(
    n_steps=st.integers(2, 6),
    alpha=_KINDS,
    beta=_KINDS,
    pi=st.lists(_KINDS, min_size=1, max_size=2),
    per_node=st.booleans(),
    mode=st.sampled_from(["trivial", "full", "delay"]),
    convention=st.sampled_from(["discounting", "paper_ode"]),
    seed=st.integers(0, 2**16),
)
def test_scenario_dict_round_trips_the_hash(n_steps, alpha, beta, pi, per_node, mode,
                                            convention, seed):
    # _scenario_dict inverts validate_scenario on every field the hash reads
    rng = np.random.default_rng(seed)
    nodes = n_steps + 1
    spec = validate_scenario({
        "grid": {"horizon": rng.uniform(0.5, 2.0), "n_steps": n_steps},
        "initial": rng.uniform(0.5, 2.0, nodes).tolist() if per_node else rng.uniform(0.5, 2.0),
        "gamma": rng.uniform(0.0, 1.0, nodes).tolist() if per_node else rng.uniform(0.0, 1.0),
        "alpha_kernel": _raw_kernel(alpha, rng, n_steps, 0.5),
        "beta_kernel": _raw_kernel(beta, rng, n_steps, 0.5),
        "levy": {"atoms": [[rng.uniform(0.05, 0.5) * rng.choice([-1, 1]), rng.uniform(0.1, 3.0)]
                           for _ in pi]},
        "pi_kernels": [_raw_kernel(kind, rng, n_steps, 0.3) for kind in pi],
        "filtration": {"mode": mode, "delay": rng.uniform(0.01, 0.5) if mode == "delay" else 0.0},
        "gamma_sign_convention": convention,
        "mc": {"n_paths": int(rng.integers(1, 1000)), "seed": int(rng.integers(0, 2**31)),
               "n_blocks": 1},
        "regression": {"degree": int(rng.integers(1, 4)), "state": ["x", "brownian"]},
    })
    again = validate_scenario(json.loads(json.dumps(_scenario_dict(spec))))
    assert scenario_hash(again) == scenario_hash(spec)


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #

def test_optimal_consumption_outputs(tmp_path):
    out = tmp_path / "out"
    code = run(["optimal-consumption", "--config", str(CONFIG), "--out", str(out)])
    assert code == 0
    rows = (out / "c_star.csv").read_text().splitlines()
    header = rows[0].split(",")
    first = dict(zip(header, rows[1].split(",")))
    middle = dict(zip(header, rows[51].split(",")))
    assert math.isclose(float(first["c_star"]), 1.0, rel_tol=1e-12)
    assert math.isclose(float(middle["c_star"]), 2.0, rel_tol=1e-12)
    report = json.loads((out / "report.json").read_text())
    assert report["checks"] and all(c["passed"] for c in report["checks"])


def test_module_entry_point_runs_a_subcommand(tmp_path):
    # ``python -m volterra_control`` in a fresh interpreter, as users start it
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run([sys.executable, "-m", "volterra_control", "optimal-consumption",
                           "--config", str(CONFIG), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "c_star" in (out / "c_star.csv").read_text().splitlines()[0].split(",")


def test_corrupted_config_exits_2(tmp_path):
    path = write_config(
        tmp_path,
        levy={"atoms": [[-2.0, 0.5]]},
        pi_kernels=[{"kind": "constant", "value": -2.0}],
    )
    code = run(["run-acceptance", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]


def test_non_finite_jump_kernel_exits_2(tmp_path):
    path = write_config(
        tmp_path,
        levy={"atoms": [[-0.1, 0.5]]},
        pi_kernels=[{"kind": "exp_decay", "amplitude": -0.1, "rate": math.nan}],
    )
    out = tmp_path / "out"
    code = run(["simulate-forward", "--config", path, "--control", "constant:1.0",
                "--out", str(out)])
    assert code == 2
    assert "finite" in json.loads((out / "report.json").read_text())["error"]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["optimal-consumption", "--config", str(CONFIG), "--frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("case", [
    "config_seed", "seed_flag", "duality_seed", "constant_text", "theta_text",
    "config_dir", "out_file",
])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, case):
    out = tmp_path / "out"
    if case == "out_file":
        out.write_text("taken")
    argv = {
        "config_seed": ["run-acceptance", "--config",
                        write_config(tmp_path, mc={"n_paths": 400, "seed": -4, "n_blocks": 8})],
        "seed_flag": ["check-mp", "--config", str(CONFIG), "--seed", "-1"],
        "duality_seed": ["verify-duality", "--seed", "-1", "--paths", "400"],
        "constant_text": ["simulate-forward", "--config", str(CONFIG), "--control", "constant:abc"],
        "theta_text": ["evaluate-utility", "--config", str(CONFIG),
                       "--control", "theta_cstar:abc"],
        "config_dir": ["solve-bsvie", "--config", str(tmp_path)],
        "out_file": ["optimal-consumption", "--config", str(CONFIG)],
    }[case] + ["--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if case != "out_file":
        assert json.loads((out / "report.json").read_text())["error"]
    else:
        assert out.read_text() == "taken"


@pytest.mark.parametrize("section, key, value", [
    ("mc", "seed", "abc"),
    ("mc", "seed", "7"),
    ("mc", "seed", 1.5),
    ("mc", "n_paths", True),
    ("mc", "n_paths", 2.9),
    ("mc", "n_blocks", math.nan),
    ("grid", "n_steps", "ten"),
    ("grid", "n_steps", math.inf),
    ("grid", "n_steps", 1e308),  # integral, but no grid that size fits in memory
    ("regression", "degree", 2.5),
])
def test_integer_field_that_is_not_an_integer_exits_2(tmp_path, capsys, section, key, value):
    raw = json.loads(CONFIG.read_text())
    raw[section][key] = value
    out = tmp_path / "out"
    assert run(["optimal-consumption", "--config", write_config(tmp_path, **raw),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # the message names the field and the value as written
    assert key in err and repr(value) in err


# every field of s0 that a config sets, and values no field accepts as is;
# each size stays small (8 steps x 64 paths), and a path or step count is
# hostile only above its bound, so no case allocates more than a few MB
HOSTILE_FIELDS = [
    "grid", "grid.horizon", "grid.n_steps", "initial", "gamma", "alpha_kernel",
    "alpha_kernel.value", "beta_kernel.kind", "beta_kernel.value", "levy.atoms", "pi_kernels",
    "filtration.mode", "filtration.delay", "gamma_sign_convention", "mc.n_paths", "mc.seed",
    "mc.n_blocks", "regression.degree", "regression.state",
]
HOSTILE_VALUES = [None, "x", [], [1.0], {}, True, 0, -1, 1.5, 2, 3, 1e308, -1e308, 1e-320,
                  [[0.1, 1.0]], [[[1.0]]]]
HOSTILE_RUNS = [["simulate-forward"], ["evaluate-utility", "--control", "cstar"],
                ["optimal-consumption"], ["solve-bsvie"]]


@pytest.mark.parametrize("field", HOSTILE_FIELDS)
def test_hostile_config_meets_a_documented_exit(tmp_path, field):
    base = json.loads(CONFIG.read_text())
    base["grid"]["n_steps"] = 8
    base["mc"] = {"n_paths": 64, "seed": 42, "n_blocks": 8}
    *sections, key = field.split(".")
    wrong = []
    for value in HOSTILE_VALUES:
        raw = json.loads(json.dumps(base))
        node = raw
        for section in sections:
            node = node[section]
        node[key] = value
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(raw))
        for argv in HOSTILE_RUNS:
            case = f"{field}={value!r} {argv[0]}"
            out = tmp_path / "out"
            try:
                code = run([argv[0], "--config", str(cfg), "--out", str(out)] + argv[1:])
            except Exception as exc:  # an escape is the failure this test looks for
                wrong.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            report = json.loads((out / "report.json").read_text())
            if code not in (0, 2, 3, 4):
                wrong.append(f"{case}: exit {code}")
            elif code == 2 and not any(name in report["error"] for name in (field, *field.split("."))):
                wrong.append(f"{case}: the error names no field: {report['error']}")
            elif code == 0:
                wrong += [f"{case}: {c['name']} passes on a value that is not finite"
                          for c in report["checks"]
                          if not all(map(math.isfinite, (c["value"], c["reference"], c["tolerance"])))]
    assert not wrong, "\n".join(wrong)


ONE_ATOM = {"pi_kernels": [{"kind": "constant", "value": 0.1}]}


@pytest.mark.parametrize("overrides, field, value", [
    ({"grid": {"horizon": "one", "n_steps": 100}}, "grid.horizon", "one"),
    ({"grid": {"horizon": True, "n_steps": 100}}, "grid.horizon", True),
    ({"initial": "1"}, "initial", "1"),
    ({"initial": math.inf}, "initial", math.inf),
    ({"gamma": "0.5"}, "gamma", "0.5"),
    ({"gamma": [0.0] * 100 + [False]}, "gamma[100]", False),
    ({"filtration": {"mode": "delay", "delay": "x"}}, "filtration.delay", "x"),
    ({"filtration": {"mode": "delay", "delay": math.nan}}, "filtration.delay", math.nan),
    ({"alpha_kernel": True}, "alpha_kernel", True),
    ({"alpha_kernel": {"kind": "constant", "value": "0.05"}}, "alpha_kernel.value", "0.05"),
    ({"beta_kernel": {"kind": "exp_decay", "amplitude": True, "rate": 1.0}},
     "beta_kernel.amplitude", True),
    ({"beta_kernel": {"kind": "exp_decay", "amplitude": 0.2, "rate": "1"}},
     "beta_kernel.rate", "1"),
    ({"alpha_kernel": {"kind": "table", "values": [0.05] * 5150 + ["x"]}},
     "alpha_kernel.values[5150]", "x"),
    ({"levy": {"atoms": [["a", 1]]}, **ONE_ATOM}, "levy.atoms[0][0]", "a"),
    ({"levy": {"atoms": [[True, 1]]}, **ONE_ATOM}, "levy.atoms[0][0]", True),
    ({"levy": {"atoms": [[0.1, math.inf]]}, **ONE_ATOM}, "levy.atoms[0][1]", math.inf),
])
def test_real_field_that_is_not_a_finite_number_exits_2(tmp_path, capsys, overrides, field,
                                                        value):
    out = tmp_path / "out"
    assert run(["optimal-consumption", "--config", write_config(tmp_path, **overrides),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # the message names the field and the value as written
    assert f"{field} must be a finite number, got {value!r}" in err


@pytest.mark.parametrize("section, value", [
    ("grid", [1.0, 10]),
    ("mc", [1]),
    ("regression", [2]),
    ("filtration", "full"),
    ("levy", [1]),
])
def test_section_that_is_not_an_object_exits_2(tmp_path, capsys, section, value):
    out = tmp_path / "out"
    assert run(["optimal-consumption", "--config", write_config(tmp_path, **{section: value}),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"'{section}' section" in err


@pytest.mark.parametrize("overrides, field", [
    ({"levy": {"atoms": 5}}, "levy.atoms"),
    ({"levy": {"atoms": None}}, "levy.atoms"),
    ({"levy": {"atoms": "[[0.1, 1.0]]"}}, "levy.atoms"),
    ({"pi_kernels": 3}, "pi_kernels"),
    ({"pi_kernels": None}, "pi_kernels"),
    ({"pi_kernels": "ab"}, "pi_kernels"),
    ({"regression": {"degree": 2, "state": 5}}, "regression.state"),
    ({"regression": {"degree": 2, "state": None}}, "regression.state"),
    ({"regression": {"degree": 2, "state": "log_x"}}, "regression.state"),
])
def test_list_field_that_is_not_a_list_exits_2(tmp_path, capsys, overrides, field):
    out = tmp_path / "out"
    assert run(["evaluate-utility", "--config", write_config(tmp_path, **overrides),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{field} must be a list" in err


@pytest.mark.parametrize("entry", [["x"], {"x": 1}])
def test_regression_state_entry_that_is_not_a_name_exits_2(tmp_path, capsys, entry):
    # an unhashable entry is named as written, not a TypeError
    overrides = {"regression": {"degree": 2, "state": [entry]}}
    out = tmp_path / "out"
    assert run(["evaluate-utility", "--config", write_config(tmp_path, **overrides),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"regression.state entry {entry!r}" in err


def test_verify_duality_small(tmp_path):
    out = tmp_path / "out"
    code = run(["verify-duality", "--paths", "40000", "--seed", "7", "--out", str(out)])
    assert code == 0
    rows = (out / "duality.csv").read_text().splitlines()
    assert rows[0].startswith("identity,lhs,rhs")
    assert len(rows) == 5
    checks = (out / "duality_checks.csv").read_text().splitlines()
    assert checks[0] == CHECKS_HEADER
    assert len(checks) == 5


def test_verify_duality_paths_not_divisible_by_8(tmp_path):
    # --paths picks gcd(paths, 8) noise blocks, as the other subcommands do
    out = tmp_path / "out"
    code = run(["verify-duality", "--paths", "10002", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert code != 2, report["error"]
    assert not report["error"]
    rows = (out / "duality.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == [
        "brownian_square", "brownian_isometry", "jump_square", "jump_isometry",
    ]


@pytest.mark.parametrize("paths", ["0", "1", "-8"])
def test_verify_duality_needs_two_paths(tmp_path, paths):
    # 0 is a path count like any other, not "use the default"; one path has
    # no standard error, so no 3-SE band
    out = tmp_path / "out"
    code = run(["verify-duality", "--paths", paths, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert code == 2
    assert "n_paths" in report["error"]
    assert not (out / "duality.csv").exists()


def test_check_mp_reference_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["check-mp", "--config", str(CONFIG), "--paths", "20000", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == [
        "C1:optimal_rate_nodes", "C1:first_order_condition",
        "C3:oracle_argmax_theta", "C3:mc_ranking_matches",
        "C4:derivative_at_optimum_bump_0.1", "C4:derivative_at_optimum_bump_0.4",
        "C4:derivative_at_optimum_bump_0.7", "C4:derivative_at_unit_rate",
    ]
    assert all(c["passed"] for c in report["checks"])
    assert capsys.readouterr().out.count(": PASS ") == 8
    checks = (out / "mp_checks.csv").read_text().splitlines()
    assert checks[0] == CHECKS_HEADER
    assert len(checks) == 9
    assert len((out / "c_star.csv").read_text().splitlines()) == 101


def test_check_mp_off_reference_exits_2(tmp_path):
    out = tmp_path / "out"
    code = run(["check-mp", "--config", write_config(tmp_path, gamma=0.5), "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert "reference scenario" in report["error"]
    assert not report["checks"]


def test_evaluate_utility_reproducible_bytes(tmp_path):
    cfg = write_config(tmp_path, mc={"n_paths": 4000, "seed": 42, "n_blocks": 8})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["evaluate-utility", "--config", cfg, "--out", str(out_a)]) == 0
    assert run(["evaluate-utility", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "utility.csv").read_bytes() == (out_b / "utility.csv").read_bytes()


def test_simulate_forward_writes_curve(tmp_path):
    cfg = write_config(tmp_path, mc={"n_paths": 4000, "seed": 42, "n_blocks": 8})
    out = tmp_path / "out"
    code = run(["simulate-forward", "--config", cfg, "--out", str(out)])
    assert code == 0
    header = (out / "forward_curve.csv").read_text().splitlines()[0]
    assert header == "t,mean,se,q05,q50,q95"


def test_solve_bsvie_subcommand(tmp_path):
    cfg = write_config(tmp_path, grid={"horizon": 1.0, "n_steps": 50},
                       mc={"n_paths": 256, "seed": 5, "n_blocks": 8})
    out = tmp_path / "out"
    code = run(["solve-bsvie", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "iteration_log.csv").exists()
    assert (out / "bsvie_diagonal.csv").exists()


def test_solve_bsvie_coarse_grid_exits_0(tmp_path):
    # at 40 steps the discrete fixed point (1 - dt)^-n is 1.3% above e^T;
    # Y(0) must lie between the two, each widened by 0.1%
    cfg = write_config(tmp_path, grid={"horizon": 1.0, "n_steps": 40})
    out = tmp_path / "out"
    assert run(["solve-bsvie", "--config", cfg, "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    row = checks["C5:resolvent_vs_exponential"]
    low, high = 0.999 * math.e, 1.001 * 0.975**-40
    assert (row["reference"], row["tolerance"]) == pytest.approx(((low + high) / 2, (high - low) / 2))


def test_resolvent_vs_exponential_fails_far_from_both_references(tmp_path):
    # at horizon 30 the relative stopping test in the exp(20 t) norm stops
    # at Y(0) ~ 1e9, far below e^30 ~ 1e13 and (1 - dt)^-n ~ 3e15
    cfg = write_config(tmp_path, grid={"horizon": 30.0, "n_steps": 100})
    out = tmp_path / "out"
    assert run(["solve-bsvie", "--config", cfg, "--out", str(out)]) == 3
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    row = checks["C5:resolvent_vs_exponential"]
    assert row["value"] < math.exp(30.0) and row["passed"] is False



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("horizon, code", [(30.0, 3), (40.0, 4), (800.0, 4)])
def test_solve_bsvie_with_overflowing_weights_does_not_converge(tmp_path, capsys, horizon, code):
    # the weights exp(20 t) overflow past t = 35: an infinite first distance
    # is no convergence, so the run exits 4 before any check reads the solve
    cfg = write_config(tmp_path, grid={"horizon": horizon, "n_steps": 100})
    out = tmp_path / "out"
    assert run(["solve-bsvie", "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("weighted distance inf after pass 1 is not finite" in err) == (code == 4)

def test_report_written_on_check_failure(tmp_path, monkeypatch):
    # force a failing check through an impossible tolerance
    import volterra_control.cli as cli

    def broken_handler(spec, args):
        return {}, [CheckResult("C1", "always_fails", 1.0, 0.0, 0.5, passed=False)]

    monkeypatch.setitem(cli.__dict__, "_cmd_optimal_consumption", broken_handler)
    out = tmp_path / "out"
    code = run(["optimal-consumption", "--config", str(CONFIG), "--out", str(out)])
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][0]["passed"] is False


def test_simulate_forward_singular_control_exits_3(tmp_path):
    cfg = write_config(tmp_path, mc={"n_paths": 512, "seed": 42, "n_blocks": 8})
    out = tmp_path / "out"
    code = run(["simulate-forward", "--config", cfg, "--control", "theta_cstar:1.1",
                "--out", str(out)])
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert "positivity" in report["error"]


def test_evaluate_utility_names_the_breach_of_a_two_time_state(tmp_path, capsys):
    # a two-time beta of amplitude 3 takes paths non-positive: the utility
    # holds the sum state to the one positivity floor, which names the
    # lowest path at the first node to reach it (exit 3)
    cfg = write_config(tmp_path, grid={"horizon": 1.0, "n_steps": 50},
                       beta_kernel={"kind": "exp_decay", "amplitude": 3.0, "rate": 0.5},
                       mc={"n_paths": 2000, "seed": 1, "n_blocks": 4})
    code = run(["evaluate-utility", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    spec = load_config(cfg)
    n = spec.grid.n_steps
    noise = generate_noise(spec.grid, spec.levy, 2000, 1, 4)
    x = simulate_fsvie(spec, noise, ControlFn.constant(1.0, spec.grid), through_node=n - 1).values
    node = np.flatnonzero(x.min(axis=0) <= POSITIVITY_FLOOR)[0]
    path = x[:, node].argmin()
    err = capsys.readouterr().err
    assert f"error: state positivity breached at path={path}, node={node}: X=" in err


# --------------------------------------------------------------------------- #
# one check writer: every subcommand prints, records and tabulates its checks
# --------------------------------------------------------------------------- #

SMALL_MC = {"n_paths": 4000, "seed": 42, "n_blocks": 8}
TWO_TIME = {"alpha_kernel": {"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0}}


# each subcommand's arguments at small sizes, and the checks table it writes
WRITER_CASES = {
    "simulate-forward": (["--paths", "4000"], "forward_checks.csv"),
    "solve-bsvie": ([], "bsvie_checks.csv"),
    "evaluate-utility": (["--paths", "4000", "--control", "cstar"], "utility_checks.csv"),
    "optimal-consumption": ([], "consumption_checks.csv"),
    "check-mp": (["--paths", "4000"], "mp_checks.csv"),
    "verify-duality": (["--paths", "4000"], "duality_checks.csv"),
    "run-acceptance": (["--paths", "4000"], "acceptance_results.csv"),
}


@pytest.mark.parametrize("subcommand", list(WRITER_CASES))
def test_every_subcommand_prints_records_and_tabulates_each_check(tmp_path, capsys, subcommand):
    flags, checks_csv = WRITER_CASES[subcommand]
    out = tmp_path / "out"
    config = [] if subcommand == "verify-duality" else ["--config", str(CONFIG)]
    code = run([subcommand] + flags + config + ["--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    checks = report["checks"]
    assert checks and not report["error"]
    assert code == (0 if all(c["passed"] for c in checks) else 3)
    assert all(re.fullmatch(r"C\d+:[\w.]+", c["name"]) for c in checks)
    # stdout is one line per recorded check, and nothing else
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(checks)
    for line, c in zip(lines, checks):
        status = "PASS" if c["passed"] else "FAIL"
        assert line.startswith(f"{c['name'].replace(':', ' ', 1)}: {status} value=")
    # the checks table holds the same rows, and is the last output written
    assert report["outputs"][-1] == str(out / checks_csv)
    with open(out / checks_csv, newline="") as f:
        text = f.read()
    assert text.splitlines()[0] == CHECKS_HEADER
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [f"{r['criterion']}:{r['name']}" for r in rows] == [c["name"] for c in checks]
    for r, c in zip(rows, checks):
        assert (float(r["value"]), float(r["reference"]), float(r["tolerance"])) == (
            c["value"], c["reference"], c["tolerance"])
        assert r["passed"] == str(int(c["passed"]))


def test_checks_table_without_a_check_keeps_its_header(tmp_path, capsys):
    # two-time kernels have no utility oracle, so evaluate-utility runs no
    # check; its checks table is still the header of the layout
    out = tmp_path / "out"
    config = write_config(tmp_path, mc=SMALL_MC, **TWO_TIME)
    assert run(["evaluate-utility", "--config", config, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["checks"] == []
    assert capsys.readouterr().out == ""
    assert (out / "utility_checks.csv").read_bytes() == (CHECKS_HEADER + "\r\n").encode()


def test_convention_is_a_usage_error_where_no_scenario_is_read(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["verify-duality", "--paths", "400", "--convention", "paper_ode",
             "--out", str(out)])
    assert exc.value.code == 2
    assert "--convention" in capsys.readouterr().err
    assert not out.exists()
    # every subcommand that reads --config still takes it
    config = write_config(tmp_path)
    assert run(["optimal-consumption", "--config", config, "--convention", "paper_ode",
                "--out", str(out)]) == 0


@pytest.mark.parametrize("flag", [["--paths", "7"], ["--seed", "3"]], ids=["paths", "seed"])
@pytest.mark.parametrize("subcommand", ["optimal-consumption", "solve-bsvie"])
def test_monte_carlo_flags_are_a_usage_error_where_no_mc_field_is_read(
        tmp_path, capsys, subcommand, flag):
    # neither subcommand reads the Monte Carlo block, so a path count or a
    # seed could change nothing but the report's hash and seed
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--config", str(CONFIG)] + flag + ["--out", str(out)])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_utility_streams_the_leg_of_a_time_invariant_scenario(tmp_path, draws):
    # the s0 objective is a shift of the control-free leg, summed in one
    # streamed pass: no whole bundle is drawn, and the values are those of
    # the leg summed on the whole bundle
    drawn, streamed = draws
    out = tmp_path / "out"
    assert run(["evaluate-utility", "--config", str(CONFIG), "--control", "cstar",
                "--out", str(out)]) == 0
    spec = load_config(str(CONFIG))
    assert streamed == [(spec.mc.n_paths, spec.mc.seed, spec.mc.n_blocks)]
    assert drawn == []
    assert (out / "utility.csv").read_bytes() == (
        b"j_mc,j_se,j_exact,j_oracle,oracle_gap\r\n"
        b"0.015380638787480395,0.0003652686731783409,0.014998500000000184,"
        b"0.014999984999999336,0.00038065378748105942\r\n")
    # two-time kernels simulate on the whole bundle, drawn once
    del streamed[:]
    config = write_config(tmp_path, mc=SMALL_MC, **TWO_TIME)
    assert run(["evaluate-utility", "--config", config, "--out", str(tmp_path / "two")]) == 0
    assert (drawn, streamed) == ([SMALL_MC["n_paths"]], [])


def test_evaluate_utility_off_oracle_passes_on_the_exact_mean(tmp_path, capsys):
    # at gamma = 0.5 the continuous oracle prices a trapezoid tail of c*, the
    # simulation the grid's left-point tail: at 100k paths the objective
    # misses the oracle by more than the old 5-SE band, but lies within 3 SE
    # of its exact discrete mean, so the run exits 0 and reports the oracle
    # gap ungated
    out = tmp_path / "out"
    code = run(["evaluate-utility", "--config", write_config(tmp_path, gamma=0.5),
                "--control", "cstar", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("C2 utility_vs_exact_mean: PASS value=")
    (check,) = json.loads((out / "report.json").read_text())["checks"]
    assert check["name"] == "C2:utility_vs_exact_mean" and check["passed"]
    (row,) = csv.DictReader(io.StringIO((out / "utility.csv").read_text()))
    assert float(row["oracle_gap"]) == float(row["j_mc"]) - float(row["j_oracle"])
    assert abs(float(row["oracle_gap"])) > 5.0 * float(row["j_se"]) + 1e-4


# The subcommand checks that generalise an acceptance criterion: each test
# recomputes the check's formula from the package's primitives and pins its
# value, reference and tolerance bit for bit.

def _reported(argv, out):
    run(argv + ["--out", str(out)])
    return {c["name"]: (c["value"], c["reference"], c["tolerance"])
            for c in json.loads((out / "report.json").read_text())["checks"]}


def _main_noise(spec):
    return generate_noise(spec.grid, spec.levy, spec.mc.n_paths, spec.mc.seed, spec.mc.n_blocks)


@pytest.mark.parametrize("kernels", [{}, TWO_TIME], ids=["one_time", "two_time"])
def test_simulate_forward_check_keeps_its_band(tmp_path, kernels):
    cfg = write_config(tmp_path, mc=SMALL_MC, **kernels)
    spec = load_config(cfg)
    one = ControlFn.constant(1.0, spec.grid)
    mean, se = mean_se(simulate_fsvie(spec, _main_noise(spec), one).values[:, -1])
    oracle = forward_mean_oracle(spec, one)
    # 4 SE, plus a first-order discretization allowance on two-time kernels
    tol = 4.0 * se + (0.0 if spec.time_invariant else 0.02 * abs(oracle[-1]))
    assert _reported(["simulate-forward", "--config", cfg], tmp_path / "out") == {
        "C8:terminal_mean_vs_oracle": (mean, float(oracle[-1]), tol)}


def test_evaluate_utility_check_keeps_its_band(tmp_path):
    cfg = write_config(tmp_path, mc=SMALL_MC)
    spec = load_config(cfg)
    cstar = ControlFn.theta_cstar(1.0, spec.gamma, spec.convention)
    res = performance(spec, cstar, _streamed_log_noise_leg(spec))
    n = spec.grid.n_steps
    mean_log_x = _log_row_means(spec, cstar.step_integrals(spec.grid), n - 1)
    exact = float((np.log(cstar.values(spec.grid)) + mean_log_x) @ _utility_weights(spec))
    assert _reported(["evaluate-utility", "--config", cfg, "--control", "cstar"],
                     tmp_path / "out") == {
        "C2:utility_vs_exact_mean": (res.j, exact, 3.0 * res.se)}


def test_optimal_consumption_check_keeps_its_band(tmp_path):
    residual = build_adjoint_state(load_config(str(CONFIG))).foc_residual()
    assert _reported(["optimal-consumption", "--config", str(CONFIG)], tmp_path / "out") == {
        "C1:first_order_condition": (residual, 0.0, 1e-12)}


@pytest.mark.parametrize("n_steps", [40, 100])
def test_solve_bsvie_checks_keep_their_bands(tmp_path, n_steps):
    cfg = write_config(tmp_path, grid={"horizon": 1.0, "n_steps": n_steps})
    grid = load_config(cfg).grid
    y0 = float(resolvent_solution(grid).y[0].mean())
    fixed_point = (1.0 - grid.dt) ** (-grid.n_steps)  # discrete resolvent identity
    exponential = math.exp(grid.horizon)
    # between e^T and the fixed point, each widened by 0.1%
    low = min(exponential, fixed_point) * (1.0 - 1e-3)
    high = max(exponential, fixed_point) * (1.0 + 1e-3)
    assert _reported(["solve-bsvie", "--config", cfg], tmp_path / "out") == {
        "C5:resolvent_fixed_point": (y0, fixed_point, 1e-3 * fixed_point),
        "C5:resolvent_vs_exponential": (y0, (low + high) / 2, (high - low) / 2),
    }


def test_verify_duality_checks_keep_their_bands(tmp_path):
    results = (brownian_duality(("brownian_square", "brownian_isometry"), 4000, 3)
               + jump_duality(("jump_square", "jump_isometry"), 4000, 4))
    assert _reported(["verify-duality", "--paths", "4000", "--seed", "3"], tmp_path / "out") == {
        f"C7:{r.name}_sides_agree": (r.lhs, r.rhs, 3.0 * r.combined_se)
        for r in results
    }
