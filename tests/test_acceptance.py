"""Acceptance suite: every reference-scenario criterion at its stated
tolerance, one printed pass/fail line per check.

The checks live in ``volterra_control.acceptance`` and are shared verbatim
with the ``run-acceptance`` CLI subcommand.  Monte Carlo criteria run at the
reference path count (1e5); the two-time family solve runs at its own scale
(see the module docstrings).
"""

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from volterra_control import acceptance as acc
from volterra_control import control, fsvie, malliavin, paths
from volterra_control.cli import load_config, run
from volterra_control.controls import ControlFn
from volterra_control.model import mean_se, validate_scenario
from volterra_control.paths import generate_noise

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "s0.json"
# value, reference and tolerance of every run-acceptance row on configs/s0.json
# at repr precision; after a change meant to move them, regenerate with
#     PYTHONPATH=src python tests/test_acceptance.py
PINNED = pathlib.Path(__file__).with_name("acceptance_values.json")
# rows whose value is a rounding error of O(1) numbers: pinned to an absolute
# floor, where a relative bound would pin the rounding itself
ROUNDING_ROWS = {"C1:optimal_rate_nodes", "C1:first_order_condition",
                 "C5:martingale_zero_terminal_row",
                 "C9:product_adjoint_gamma_0", "C9:product_adjoint_gamma_1"}


def _pinned_fields(r):
    return {"value": r.value, "reference": r.reference, "tolerance": r.tolerance}


@pytest.fixture(scope="module")
def scenario():
    spec = load_config(str(CONFIG))
    acc.require_reference_scenario(spec)
    return spec


@pytest.fixture(scope="module")
def reference_noise(scenario):
    mc = scenario.mc
    return generate_noise(scenario.grid, scenario.levy, mc.n_paths, mc.seed, mc.n_blocks)


@pytest.fixture(scope="module")
def reference_log_noise(scenario):
    """The control-free leg that ``run_acceptance`` hands to C2-C4 and C8."""
    return control._streamed_log_noise_leg(scenario)


@pytest.fixture(scope="module")
def martingale_solution():
    return acc.martingale_family_solution()


def _assert_all(results):
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)


def _assert_pinned(results):
    """Every row passes and holds the pinned value, reference and tolerance."""
    _assert_all(results)
    pinned = json.loads(PINNED.read_text())
    moved = []
    for r in results:
        key = f"{r.criterion}:{r.name}"
        floor = 1e-12 if key in ROUNDING_ROWS else 0.0
        for field, got in _pinned_fields(r).items():
            want = pinned[key][field]
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=floor):
                moved.append(f"{key} {field}: {got!r} != pinned {want!r}")
    assert not moved, "\n".join(moved)


def test_c01_closed_form_optimum(scenario):
    _assert_pinned(acc.check_closed_form_optimum(scenario))


def test_c02_value_function_oracle(scenario, reference_log_noise):
    _assert_pinned(acc.check_value_oracle(scenario, reference_log_noise))


def test_c03_optimality_ranking(scenario, reference_log_noise):
    _assert_pinned(acc.check_optimality_ranking(scenario, reference_log_noise))


def test_c04_necessary_maximum_principle(scenario, reference_log_noise):
    _assert_pinned(acc.check_necessary_mp(scenario, reference_log_noise))


def test_c05_bsvie_solver(martingale_solution):
    _assert_pinned(acc.check_bsvie_solver(martingale_solution))


def test_c05_vectorised_zscores_equal_the_pair_loop():
    stats = acc.martingale_family_solution(n_steps=30, n_paths=2000, seed=3)
    assert stats.grid.n_steps == 30 and stats.n_paths == 2000
    n, dt = 30, stats.grid.dt
    zs = []
    for i in range(1, n):
        t_i = stats.grid.nodes[i]
        for j in range(i, n):
            se = t_i * np.sqrt((stats.grid.nodes[j] / dt + 2.0) / stats.n_paths)
            zs.append(abs(float(stats.z_mean[j][i]) - t_i) / se)
    zs = np.array(zs)
    _, within, largest, zero_row = acc.check_bsvie_solver(stats)
    assert within.value == float(np.mean(zs <= 3.0))
    assert within.detail == f"{(zs > 3).sum()} of {zs.size} pairs beyond 3 SE"
    assert largest.value == float(zs.max())
    assert zero_row.value == stats.zero_row_max == 0.0


def test_c06_contraction():
    _assert_pinned(acc.check_contraction())


def test_c07_duality_identities():
    _assert_pinned(acc.check_duality())


def test_c08_forward_solver(scenario, reference_log_noise):
    _assert_pinned(acc.check_forward_solver(scenario, reference_log_noise))


def test_c09_adjoint_reduction(scenario):
    _assert_pinned(acc.check_adjoint_reduction(scenario))


def test_c10_z_time_derivative(martingale_solution):
    _assert_pinned(acc.check_z_time_derivative(martingale_solution))


@pytest.mark.parametrize("entry", ["check_duality", "verify-duality"])
def test_c07_draws_each_block_once(entry, monkeypatch, tmp_path):
    # every block of each stage's noise is drawn once, for all the stage's
    # identities (two per stage through verify-duality), and no whole bundle
    drawn = []
    draw_block = paths._draw_block

    def tracked_draw(child, grid, levy, *args):
        drawn.append((child.entropy, child.spawn_key, grid.n_steps, levy.n_atoms))
        return draw_block(child, grid, levy, *args)

    def no_bundle(*args, **kwargs):
        raise AssertionError("C7 drew a whole bundle")

    monkeypatch.setattr(paths, "_draw_block", tracked_draw)
    monkeypatch.setattr(acc, "generate_noise", no_bundle)
    if entry == "check_duality":
        acc.check_duality(n_paths=400)
    else:
        assert run(["verify-duality", "--paths", "400", "--out", str(tmp_path / "out")]) == 0
    # the Brownian stage at seed 7, then the jump stage at seed 8, 8 blocks each
    brownian, jump = drawn[:8], drawn[8:]
    assert sorted(brownian) == [(7, (b,), 200, 0) for b in range(8)]
    assert sorted(jump) == [(8, (b,), 100, 1) for b in range(8)]


def test_c02_to_c04_never_simulate_the_state(s0_small, monkeypatch):
    calls = []
    simulate = fsvie.simulate_fsvie

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    for module in (fsvie, control, acc):
        monkeypatch.setattr(module, "simulate_fsvie", counted)
    log_noise = control._streamed_log_noise_leg(s0_small)
    results = (acc.check_value_oracle(s0_small, log_noise)
               + acc.check_optimality_ranking(s0_small, log_noise)
               + acc.check_necessary_mp(s0_small, log_noise))
    assert calls == []
    _assert_all(results)


def test_c08_terminal_mean_is_the_simulated_terminal_row(s0_small, s0_noise):
    # C8 reads log X(T) = L_n - C_n off the control-free leg; the simulator
    # sums the same steps with the rate inside each, so the two agree per
    # path up to the order of the sum (2.2e-15 seen at s0, seed 42)
    grid, n = s0_small.grid, s0_small.grid.n_steps
    one = ControlFn.constant(1.0, grid)
    fwd = fsvie.simulate_fsvie(s0_small, s0_noise, one)
    assert fwd.log_state
    log_noise = control._streamed_log_noise_leg(s0_small)
    log_x = log_noise.terminal - np.sum(one.step_integrals(grid))
    assert np.max(np.abs(log_x - fwd.state[:, n])) <= 1e-14
    mean, se = mean_se(fwd.row(n))
    result = acc.check_forward_solver(s0_small, log_noise)[0]
    assert result.name == "terminal_mean"
    assert abs(result.value - mean) <= 1e-14 * mean
    assert abs(result.tolerance - 3.0 * se) <= 1e-12 * se


def test_c08_reports_the_simulators_breach():
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": 100}, "initial": 1.0, "gamma": 0.0,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 6.0},
        "levy": {"atoms": []}, "pi_kernels": [], "filtration": {"mode": "trivial"},
        "mc": {"n_paths": 2000, "seed": 0, "n_blocks": 1},
    })
    noise = generate_noise(spec.grid, spec.levy, 2000, 0, 1)
    log_noise = control._streamed_log_noise_leg(spec)
    breaches = []
    one = ControlFn.constant(1.0, spec.grid)
    for evaluate in (lambda: fsvie.simulate_fsvie(spec, noise, one),
                     lambda: acc.check_forward_solver(spec, log_noise)):
        with pytest.raises(fsvie.PositivityBreachError) as err:
            evaluate()
        breaches.append((err.value.path, err.value.node, err.value.value))
    # the leg's value is exp(min_log - C), the simulator's the summed row
    assert breaches[0][:2] == breaches[1][:2]
    assert math.isclose(breaches[0][2], breaches[1][2], rel_tol=1e-12)


def test_log_leg_and_c08_never_form_the_state(s0_small, s0_noise):
    # the leg reads the exact engine one node row at a time, and C8 shifts
    # the leg's terminal row: neither forms a (n_paths, n + 1) state beside
    # the noise
    log_noise = control._streamed_log_noise_leg(s0_small)
    leg, terminal = np.empty(s0_noise.n_paths), np.empty(s0_noise.n_paths)

    def stage():
        control._sum_log_noise(s0_small, s0_noise, leg, terminal)
        acc.check_forward_solver(s0_small, log_noise)

    stage()  # first-call imports and caches
    tracemalloc.start()
    try:
        stage()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * (s0_noise.d_brownian.nbytes + s0_noise.jump_counts.nbytes)


def test_c07_jump_bundle_never_builds_brownian_levels(monkeypatch):
    # neither stage builds levels on the pieces it is streamed: the verifiers
    # keep running level rows.  A piece buffer of 100 steps x one chunk
    # splits every 2048-path block of both stages into two 1024-path pieces.
    monkeypatch.setattr(paths, "_PIECE_BYTES", paths._CHUNK_ROWS * 100 * 8)
    built = []
    stream = malliavin.stream_noise

    def tracked_stream(grid, levy, n_paths, seed, n_blocks, consume):
        def tracked_consume(rows, piece):
            consume(rows, piece)
            built.append((levy.n_atoms, rows.stop - rows.start, sorted(piece.__dict__.keys() & {
                "brownian_levels", "count_levels"})))

        stream(grid, levy, n_paths, seed, n_blocks, tracked_consume)

    monkeypatch.setattr(malliavin, "stream_noise", tracked_stream)
    acc.check_duality(n_paths=8 * 2048)
    # the Brownian stage's 16 pieces, then the jump stage's
    assert built == [(0, 1024, [])] * 16 + [(1, 1024, [])] * 16


def test_run_acceptance_never_draws_an_s0_sized_bundle(s0_small, draws, monkeypatch):
    # the main noise is streamed once for C2-C4 and C8, and no stage up to
    # the C5 family (after the last reader of the main noise) draws it
    # whole; C8's weak-error grids draw one path each
    class Stop(Exception):
        pass

    def family_solution():
        raise Stop

    drawn, streamed = draws
    monkeypatch.setattr(acc, "martingale_family_solution", family_solution)
    with pytest.raises(Stop):
        acc.run_acceptance(s0_small)
    mc = s0_small.mc
    assert streamed == [(mc.n_paths, mc.seed, mc.n_blocks)]
    assert drawn == [1] * 4


def test_streamed_leg_is_the_bundles_leg(scenario, reference_noise, reference_log_noise):
    # every value of the leg is per path or a minimum: streaming changes no bit
    leg, terminal = np.empty(reference_noise.n_paths), np.empty(reference_noise.n_paths)
    min_log, low_path = control._sum_log_noise(scenario, reference_noise, leg, terminal)
    assert np.array_equal(reference_log_noise.leg, leg)
    assert np.array_equal(reference_log_noise.min_log, min_log)
    assert np.array_equal(reference_log_noise.low_path, low_path)
    assert np.array_equal(reference_log_noise.terminal, terminal)


def test_streamed_s0_stage_holds_a_fraction_of_the_bundle(s0_small, cpus):
    # traced from before the draw: one worker holds one 2500-path block, a
    # chunk's draw and the (N,) leg and terminal rows
    cpus(1)

    def stage():
        return acc.check_forward_solver(s0_small, control._streamed_log_noise_leg(s0_small))

    stage()  # first-call imports and caches
    tracemalloc.start()
    try:
        forward = stage()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in forward)
    bundle_bytes = s0_small.grid.n_steps * s0_small.mc.n_paths * 8
    assert peak < 0.25 * bundle_bytes


def test_streamed_s0_stage_names_the_simulators_breach(draws):
    # beta = 6 breaches the floor under the unit rate: C8 and the leg name
    # the path and node the simulator names, off the stream's minima, and
    # draw no noise after the stream
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": 100}, "initial": 1.0, "gamma": 0.0,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 6.0},
        "levy": {"atoms": []}, "pi_kernels": [], "filtration": {"mode": "trivial"},
        "mc": {"n_paths": 2000, "seed": 0, "n_blocks": 4},
    })
    noise = generate_noise(spec.grid, spec.levy, 2000, 0, 4)
    n = spec.grid.n_steps
    one = ControlFn.constant(1.0, spec.grid)

    def breach(evaluate):
        with pytest.raises(fsvie.PositivityBreachError) as err:
            evaluate()
        return err.value.path, err.value.node, err.value.value

    def assert_same(leg_breach, simulated):
        assert leg_breach[:2] == simulated[:2]
        assert math.isclose(leg_breach[2], simulated[2], rel_tol=1e-12)

    log_noise = control._streamed_log_noise_leg(spec)
    drawn, streamed = draws
    assert_same(breach(lambda: acc.check_forward_solver(spec, log_noise)),
                breach(lambda: fsvie.simulate_fsvie(spec, noise, one)))
    assert_same(breach(lambda: control.performance(spec, one, log_noise)),
                breach(lambda: fsvie.simulate_fsvie(spec, noise, one, through_node=n - 1)))
    # the lowest path at the first node to reach the floor
    assert breach(lambda: control.performance(spec, one, log_noise))[:2] == (936, 66)
    assert streamed == [(2000, 0, 4)] and drawn == []


if __name__ == "__main__":
    rows = acc.run_acceptance(load_config(str(CONFIG)))
    PINNED.write_text(json.dumps({f"{r.criterion}:{r.name}": _pinned_fields(r) for r in rows},
                                 indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {PINNED}")
