"""Acceptance suite: every reference-scenario criterion at its stated
tolerance, one printed pass/fail line per check.

The checks live in ``volterra_control.acceptance`` and are shared verbatim
with the ``run-acceptance`` CLI subcommand.  Monte Carlo criteria run at the
reference path count (1e5); the two-time family solve runs at its own scale
(see the module docstrings).
"""

import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest

from volterra_control import acceptance as acc
from volterra_control import control, fsvie, malliavin, paths
from volterra_control.cli import load_config, run
from volterra_control.controls import ControlFn
from volterra_control.model import mean_se, validate_scenario
from volterra_control.paths import generate_noise

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "s0.json"


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
def reference_log_noise(scenario, reference_noise):
    """The control-free leg that ``run_acceptance`` hands to C2-C4."""
    return control._log_noise_leg(scenario, reference_noise)


@pytest.fixture(scope="module")
def martingale_solution():
    return acc.martingale_family_solution()


def _assert_all(results):
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)


def test_c01_closed_form_optimum(scenario):
    _assert_all(acc.check_closed_form_optimum(scenario))


def test_c02_value_function_oracle(scenario, reference_log_noise):
    _assert_all(acc.check_value_oracle(scenario, reference_log_noise))


def test_c03_optimality_ranking(scenario, reference_log_noise):
    _assert_all(acc.check_optimality_ranking(scenario, reference_log_noise))


def test_c04_necessary_maximum_principle(scenario, reference_log_noise):
    _assert_all(acc.check_necessary_mp(scenario, reference_log_noise))


def test_c05_bsvie_solver(martingale_solution):
    _assert_all(acc.check_bsvie_solver(martingale_solution))


def test_c05_vectorised_zscores_equal_the_pair_loop():
    stats = acc.martingale_family_solution(n_steps=30, n_paths=2000, seed=3)
    assert stats.grid.n_steps == 30 and stats.n_paths == 2000
    n, dt = 30, stats.grid.dt
    zs = []
    for i in range(1, n):
        t_i = stats.grid.nodes[i]
        for j in range(i, n):
            se = t_i * np.sqrt((stats.grid.nodes[j] / dt + 2.0) / stats.n_paths)
            zs.append(abs(float(stats.z_mean[j * (j + 1) // 2 + i]) - t_i) / se)
    zs = np.array(zs)
    _, within, largest, zero_row = acc.check_bsvie_solver(stats)
    assert within.value == float(np.mean(zs <= 3.0))
    assert within.detail == f"{(zs > 3).sum()} of {zs.size} pairs beyond 3 SE"
    assert largest.value == float(zs.max())
    assert zero_row.value == stats.zero_row_max == 0.0


def test_c06_contraction():
    _assert_all(acc.check_contraction())


def test_c07_duality_identities():
    _assert_all(acc.check_duality())


def test_c08_forward_solver(scenario, reference_noise):
    _assert_all(acc.check_forward_solver(scenario, reference_noise))


def test_c09_adjoint_reduction(scenario):
    _assert_all(acc.check_adjoint_reduction(scenario))


def test_c10_z_time_derivative(martingale_solution):
    _assert_all(acc.check_z_time_derivative(martingale_solution))


@pytest.mark.parametrize("entry", ["check_duality", "verify-duality"])
def test_c07_draws_each_block_once(entry, monkeypatch, tmp_path):
    # every block of each stage's noise is drawn once, for all the stage's
    # identities (two per stage through verify-duality), and no whole bundle
    drawn = []
    draw_block = paths._draw_block

    def tracked_draw(child, grid, levy, db, counts):
        drawn.append((child.entropy, child.spawn_key, grid.n_steps, levy.n_atoms))
        draw_block(child, grid, levy, db, counts)

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


def test_c02_to_c04_never_simulate_the_state(s0_small, s0_noise, monkeypatch):
    calls = []
    simulate = fsvie.simulate_fsvie

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    for module in (fsvie, control, acc):
        monkeypatch.setattr(module, "simulate_fsvie", counted)
    log_noise = control._log_noise_leg(s0_small, s0_noise)
    results = (acc.check_value_oracle(s0_small, log_noise)
               + acc.check_optimality_ranking(s0_small, log_noise)
               + acc.check_necessary_mp(s0_small, log_noise))
    assert calls == []
    _assert_all(results)


def test_c08_terminal_mean_is_the_simulated_terminal_row(s0_small, s0_noise):
    one = ControlFn.constant(1.0, s0_small.grid)
    terminal = fsvie.simulate_fsvie(s0_small, s0_noise, one).row(s0_small.grid.n_steps)
    mean, se = mean_se(terminal)
    result = acc.check_forward_solver(s0_small, s0_noise)[0]
    assert (result.name, result.value, result.tolerance) == ("terminal_mean", mean, 3.0 * se)


def test_c08_reports_the_simulators_breach():
    spec = validate_scenario({
        "grid": {"horizon": 1.0, "n_steps": 100}, "initial": 1.0, "gamma": 0.0,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 6.0},
        "levy": {"atoms": []}, "pi_kernels": [], "filtration": {"mode": "trivial"},
        "mc": {"n_paths": 2000, "seed": 0, "n_blocks": 1},
    })
    noise = generate_noise(spec.grid, spec.levy, 2000, 0, 1)
    breaches = []
    one = ControlFn.constant(1.0, spec.grid)
    for evaluate in (lambda: fsvie.simulate_fsvie(spec, noise, one),
                     lambda: acc.check_forward_solver(spec, noise)):
        with pytest.raises(fsvie.PositivityBreachError) as err:
            evaluate()
        breaches.append((err.value.path, err.value.node, err.value.value))
    assert breaches[0] == breaches[1]


def test_log_leg_and_c08_never_form_the_state(s0_small, s0_noise):
    # both read the exact engine one node row at a time: neither forms a
    # (n_paths, n + 1) state beside the noise
    control._log_noise_leg(s0_small, s0_noise)  # first-call imports and caches
    tracemalloc.start()
    try:
        control._log_noise_leg(s0_small, s0_noise)
        acc.check_forward_solver(s0_small, s0_noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * (s0_noise.d_brownian.nbytes + s0_noise.jump_counts.nbytes)


def test_c07_jump_bundle_never_builds_brownian_levels(monkeypatch):
    # neither stage builds levels on the blocks it is streamed: the verifiers
    # keep running level rows
    built = []
    stream = malliavin.stream_noise

    def tracked_stream(grid, levy, n_paths, seed, n_blocks, consume):
        def tracked_consume(rows, block):
            consume(rows, block)
            built.append((levy.n_atoms, sorted(block.__dict__.keys() & {
                "brownian_levels", "count_levels", "compensated_counts"})))

        stream(grid, levy, n_paths, seed, n_blocks, tracked_consume)

    monkeypatch.setattr(malliavin, "stream_noise", tracked_stream)
    acc.check_duality(n_paths=400)
    # the Brownian stage's 8 blocks, then the jump stage's
    assert built == [(0, [])] * 8 + [(1, [])] * 8


def test_main_noise_is_released_before_the_c05_family(s0_small, monkeypatch):
    drawn, alive = [], []

    class Stop(Exception):
        pass

    def tracked_noise(*args, **kwargs):
        noise = generate_noise(*args, **kwargs)
        drawn.append(weakref.ref(noise))
        return noise

    def family_solution():
        alive.append(drawn[0]() is not None)
        raise Stop

    monkeypatch.setattr(acc, "generate_noise", tracked_noise)
    monkeypatch.setattr(acc, "martingale_family_solution", family_solution)
    with pytest.raises(Stop):
        acc.run_acceptance(s0_small)
    assert alive == [False]
