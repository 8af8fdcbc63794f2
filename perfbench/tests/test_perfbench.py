"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Workload sizes are shrunk so that every test takes well under a second.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from volterra_control import _kernels, fsvie  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "FORWARD_STEPS", 20)
    monkeypatch.setattr(workloads, "FORWARD_PATHS", 400)
    monkeypatch.setattr(workloads, "H1_NODES", (5, 10))
    monkeypatch.setattr(workloads, "BSVIE_STEPS", 6)
    monkeypatch.setattr(workloads, "BSVIE_PATHS", 400)
    monkeypatch.setattr(workloads, "UTILITY_STEPS", 10)
    monkeypatch.setattr(workloads, "UTILITY_PATHS", 800)


def test_self_times_on_synthetic_tree():
    # A [0, 10] encloses B [1, 4] (which encloses C [2, 3]) and B [5, 6];
    # D [11, 12] is a second root; the C call raised.
    tree = [
        ("A", -1, 0.0, 10.0, False),
        ("B", 0, 1.0, 4.0, False),
        ("C", 1, 2.0, 3.0, True),
        ("B", 0, 5.0, 6.0, False),
        ("D", -1, 11.0, 12.0, False),
    ]
    stats = spans.self_times(tree)
    assert stats["A"] == {"calls": 1, "self_s": 6.0, "total_s": 10.0, "errors": 0}
    assert stats["B"] == {"calls": 2, "self_s": 3.0, "total_s": 4.0, "errors": 0}
    assert stats["C"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0, "errors": 1}
    assert stats["D"]["self_s"] == 1.0
    assert spans.root_time(tree) == 11.0
    assert sum(row["self_s"] for row in stats.values()) == spans.root_time(tree)


def test_recorder_nests_spans_and_counts_errors():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))

    def inner():
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            recorder.call("inner", inner, (), {})
        return 7

    assert recorder.call("outer", outer, (), {}) == 7
    stats = spans.self_times(recorder.spans)
    assert stats["outer"] == {"calls": 1, "self_s": 2.0, "total_s": 3.0, "errors": 0}
    assert stats["inner"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0, "errors": 1}


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = harness.layer_metrics()
    for names in (harness.END_TO_END, layer):
        for name in names:
            assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layer
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_failed_checks_count_in_fail_ratio(small, monkeypatch, capsys):
    spec = workloads.forward_setup(3, ROOT)
    tally = harness.Tally()
    tally.run_once(workloads.forward_operation, spec)
    assert tally.failed == 0
    # an oracle far from the simulated mean must fail the band check
    monkeypatch.setattr(fsvie, "forward_mean_oracle", lambda s, c: np.full(21, 10.0))
    tally.run_once(workloads.forward_operation, spec)

    def raises(state):
        raise RuntimeError("no result")

    tally.run_once(raises, spec)
    assert (tally.failed, len(tally.walls)) == (2, 3)
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert "outside" in lines[1]["problems"][0]
    assert "RuntimeError" in lines[2]["problems"][0]


@pytest.mark.parametrize("name", ["volterra_forward", "backward_jumps"])
def test_seed_reaches_the_inputs(small, name):
    setup, operation = workloads.WORKLOADS[name]
    first, problems = operation(setup(1, ROOT))
    assert problems == []
    again, _ = operation(setup(1, ROOT))
    other, _ = operation(setup(2, ROOT))
    assert again == first
    assert other != first


def test_traced_run_wraps_and_restores(small):
    original = _kernels.volterra_sweep
    recorder = spans.Recorder()
    spec = workloads.forward_setup(1, ROOT)
    with spans.traced(recorder):
        assert fsvie.volterra_sweep is not original
        workloads.forward_operation(spec)
    assert fsvie.volterra_sweep is original and _kernels.volterra_sweep is original
    stats = spans.self_times(recorder.spans)
    # one forward sweep plus (1 + atoms) first-variation sweeps per H1 node
    assert stats["kernels.volterra_sweep"]["calls"] == 1 + 2 * len(workloads.H1_NODES)
    assert stats["control.hamiltonian_h1"]["calls"] == len(workloads.H1_NODES)
    assert recorder.counters["condexp.project.designs"] == len(workloads.H1_NODES)
    assert recorder.counters["paths.generate_noise.mb"] == 400 * 20 * 16 / 1e6


def test_sweep_matches_direct_recursion():
    assert sweep.reference_error(_kernels.volterra_sweep, seed=5) < 1e-12
