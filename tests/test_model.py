import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from volterra_control.model import (
    Kernel,
    KernelDomainError,
    LevyMeasure,
    ValidationError,
    build_time_grid,
    time_quadrature_weights,
    validate_scenario,
)

S0_RAW = {
    "grid": {"horizon": 1.0, "n_steps": 100},
    "initial": 1.0,
    "gamma": 0.0,
    "alpha_kernel": {"kind": "constant", "value": 0.05},
    "beta_kernel": {"kind": "constant", "value": 0.2},
    "levy": {"atoms": []},
    "pi_kernels": [],
    "filtration": {"mode": "trivial"},
    "mc": {"n_paths": 1000, "seed": 42, "n_blocks": 8},
}


# --------------------------------------------------------------------------- #
# time grid
# --------------------------------------------------------------------------- #

def test_grid_nodes_uniform_partition():
    grid = build_time_grid(1.0, 4)
    assert np.allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_nodes_are_computed_once_and_read_only():
    grid = build_time_grid(1.0, 4)
    assert grid.nodes is grid.nodes
    with pytest.raises(ValueError):
        grid.nodes[1] = 0.3
    assert grid.nodes.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert grid == build_time_grid(1.0, 4) and hash(grid) == hash(build_time_grid(1.0, 4))


def test_grid_dt():
    assert build_time_grid(2.0, 2).dt == 1.0


@pytest.mark.parametrize("horizon,n", [(1.0, 1), (0.0, 4), (-1.0, 4), (1.0, 0)])
def test_grid_rejects_bad_inputs(horizon, n):
    with pytest.raises(ValidationError):
        build_time_grid(horizon, n)


def test_grid_gaps_equal():
    grid = build_time_grid(0.7, 97)
    gaps = np.diff(grid.nodes)
    assert np.all(np.abs(gaps - grid.dt) <= 1e-12 * grid.horizon)


def test_quadrature_weights_integrate_constants():
    grid = build_time_grid(2.5, 40)
    assert math.isclose(time_quadrature_weights(grid).sum(), 2.5, rel_tol=1e-14)


# --------------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------------- #

def test_constant_kernel_value():
    k = Kernel.constant(0.05)
    assert k(0.7, 0.2) == 0.05


def test_exp_decay_kernel_value():
    k = Kernel.exp_decay(0.05, 1.0)
    assert math.isclose(k(1.0, 0.0), 0.05 * math.exp(-1.0), rel_tol=1e-14)


@pytest.mark.parametrize("kernel, form", [
    (Kernel.constant(0.3), (0.3, 0.0)),
    (Kernel.exp_decay(-0.1, 0.5), (-0.1, 0.5)),
    (Kernel.from_table(np.arange(6.0), 2), None),
])
def test_exponential_form_of_each_kernel_kind(kernel, form):
    assert kernel.exponential_form == form
    if form is not None:
        grid = build_time_grid(1.0, 4)
        amplitude, rate = form
        lag = np.tril(grid.nodes[:, None] - grid.nodes[None, :])
        want = np.tril(amplitude * np.exp(-rate * lag))
        np.testing.assert_allclose(kernel.at_nodes(grid), want, rtol=1e-15)


def test_kernel_outside_triangle_raises():
    with pytest.raises(KernelDomainError):
        Kernel.constant(1.0)(0.2, 0.7)


def test_exp_decay_derivative_matches_finite_differences():
    # central differences converge at second order: quartering h should cut
    # the defect by ~16
    k = Kernel.exp_decay(0.05, 1.3)
    grid = build_time_grid(1.0, 10)
    i, j = 8, 3
    t, s = grid.nodes[i], grid.nodes[j]
    exact = k.d_first_column(grid, j)[i - j]

    def defect(h):
        return abs((k(t + h, s) - k(t - h, s)) / (2 * h) - exact)

    d1, d2 = defect(1e-3), defect(2.5e-4)
    assert d1 < 1e-6
    assert d2 < d1 / 8


def _table_derivative_loop(vals, n, dt):
    """The earlier element-by-element finite differences of a table kernel,
    kept verbatim as the reference for the sliced version."""
    out = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(i + 1):
            if j <= i - 1 and i + 1 <= n:
                out[i, j] = (vals[i + 1, j] - vals[i - 1, j]) / (2 * dt) if i - 1 >= j else \
                    (vals[i + 1, j] - vals[i, j]) / dt
            elif i + 1 <= n:
                out[i, j] = (vals[i + 1, j] - vals[i, j]) / dt
            else:
                out[i, j] = (vals[i, j] - vals[i - 1, j]) / dt if i - 1 >= j else 0.0
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 10, 57])
def test_table_derivative_matches_elementwise_loop(n):
    # every column, k = n (a single zero) included
    grid = build_time_grid(1.3, n)
    rng = np.random.default_rng(n)
    k = Kernel.from_table(rng.normal(size=(n + 1) * (n + 2) // 2), n)
    want = _table_derivative_loop(k.at_nodes(grid), n, grid.dt)
    for col in range(n + 1):
        assert np.array_equal(k.d_first_column(grid, col), want[col:, col])


@pytest.mark.parametrize("kind", ["constant", "exp_decay", "table"])
def test_column_readers_are_the_node_matrix_columns(kind):
    # bit for bit: the sweep's sources and H1's derivatives read columns
    # where they once sliced them out of the node matrices
    n = 23
    grid = build_time_grid(1.7, n)
    rng = np.random.default_rng(5)
    k = {"constant": Kernel.constant(-0.3),
         "exp_decay": Kernel.exp_decay(0.4, 2.3),
         "table": Kernel.from_table(rng.normal(size=(n + 1) * (n + 2) // 2), n)}[kind]
    vals = k.at_nodes(grid)
    d_first = {"constant": np.zeros((n + 1, n + 1)),
               "exp_decay": -k.rate * vals,
               "table": _table_derivative_loop(vals, n, grid.dt)}[kind]
    for col in range(n):
        assert np.array_equal(k.column(grid, col), vals[col:, col])
        assert np.array_equal(k.d_first_column(grid, col), d_first[col:, col])


def test_table_kernel_roundtrip():
    grid = build_time_grid(1.0, 3)
    vals = np.arange(10, dtype=float)  # (n+1)(n+2)/2 entries
    k = Kernel.from_table(vals, 3)
    mat = k.at_nodes(grid)
    assert mat[0, 0] == 0.0 and mat[2, 1] == 4.0 and mat[3, 3] == 9.0
    assert np.all(mat[np.triu_indices(4, k=1)] == 0.0)


def test_table_kernel_scalar_query_raises():
    k = Kernel.from_table(np.zeros(10), 3)
    with pytest.raises(KernelDomainError):
        k(0.5, 0.25)


def test_table_kernel_on_another_grid_raises():
    k = Kernel.from_table(np.zeros(10), 3)
    grid = build_time_grid(1.0, 4)
    for read in (k.at_nodes, lambda g: k.column(g, 1), lambda g: k.d_first_column(g, 1)):
        with pytest.raises(KernelDomainError, match="built for n=3"):
            read(grid)


def test_table_kernel_wrong_length():
    with pytest.raises(ValidationError):
        Kernel.from_table(np.zeros(9), 3)


# --------------------------------------------------------------------------- #
# discrete jump measure
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("atoms", [[[0.0, 1.0]], [[0.5, -1.0]], [[0.5, 0.0]]])
def test_levy_rejects_degenerate_atoms(atoms):
    with pytest.raises(ValidationError):
        LevyMeasure.from_atoms(atoms)


# --------------------------------------------------------------------------- #
# scenario validation
# --------------------------------------------------------------------------- #

def test_validate_accepts_reference_scenario():
    spec = validate_scenario(dict(S0_RAW))
    assert spec.grid.n_steps == 100
    assert spec.time_invariant


def test_validate_rejects_jump_killing_positivity():
    raw = dict(S0_RAW)
    raw["levy"] = {"atoms": [[-1.5, 0.5]]}
    raw["pi_kernels"] = [{"kind": "constant", "value": -1.5}]
    with pytest.raises(ValidationError, match="positive"):
        validate_scenario(raw)


@pytest.mark.parametrize("kernel", [
    {"kind": "exp_decay", "amplitude": -0.1, "rate": math.nan},
    {"kind": "exp_decay", "amplitude": math.nan, "rate": 0.5},
    {"kind": "constant", "value": math.nan},
    {"kind": "exp_decay", "amplitude": -0.1, "rate": math.inf},
    # built past the constructors' checks: validation still sees the NaN
    Kernel(kind="exp_decay", amplitude=-0.1, rate=math.nan),
    Kernel(kind="exp_decay", amplitude=math.nan, rate=0.5),
])
def test_validate_rejects_non_finite_jump_kernel(kernel):
    raw = dict(S0_RAW, levy={"atoms": [[-0.1, 0.5]]}, pi_kernels=[kernel])
    with pytest.raises(ValidationError, match="finite"):
        validate_scenario(raw)


@pytest.mark.parametrize("field", ["alpha_kernel", "beta_kernel"])
def test_validate_rejects_non_finite_drift_kernel(field):
    raw = dict(S0_RAW, **{field: Kernel(kind="exp_decay", amplitude=math.nan, rate=0.5)})
    with pytest.raises(ValidationError, match=f"{field[:-7]} kernel produced non-finite values"):
        validate_scenario(raw)


@pytest.mark.parametrize("kernel, min_pi", [
    ({"kind": "exp_decay", "amplitude": -1.2, "rate": 1.0}, "-1.2"),
    # built past the constructor's rate check: the minimum is at the lag T
    (Kernel(kind="exp_decay", amplitude=-0.5, rate=-1.0), "-1.35914"),
    ({"kind": "table", "values": [-0.5, -0.5, -1.25] + [-0.1] * 3}, "-1.25"),
])
def test_jump_kernel_minimum_over_the_triangle(kernel, min_pi):
    # an analytic kernel is monotone in the lag, so its minimum is one of
    # the two extreme lags; a table is read on the whole triangle
    raw = dict(S0_RAW, grid={"horizon": 1.0, "n_steps": 2}, levy={"atoms": [[-0.1, 0.5]]},
               pi_kernels=[kernel])
    with pytest.raises(ValidationError) as err:
        validate_scenario(raw)
    assert str(err.value) == f"jump kernel 0: 1 + pi must stay positive, min pi = {min_pi}"


def test_validating_analytic_kernels_forms_no_node_matrix():
    # one (n + 1)^2 node matrix at 2,000 steps is 32 MB
    raw = dict(S0_RAW, grid={"horizon": 1.0, "n_steps": 2000}, levy={"atoms": [[-0.1, 0.5]]},
               alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
               beta_kernel={"kind": "exp_decay", "amplitude": 0.2, "rate": 0.5},
               pi_kernels=[{"kind": "exp_decay", "amplitude": -0.1, "rate": 0.5}])
    tracemalloc.start()
    try:
        validate_scenario(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_validate_rejects_zero_initial():
    raw = dict(S0_RAW)
    raw["initial"] = 0.0
    with pytest.raises(ValidationError):
        validate_scenario(raw)


def test_validate_rejects_unknown_kernel_kind():
    raw = dict(S0_RAW)
    raw["alpha_kernel"] = {"kind": "fancy", "value": 1.0}
    with pytest.raises(ValidationError, match="kind"):
        validate_scenario(raw)


def test_validate_rejects_ambiguous_kernel():
    raw = dict(S0_RAW)
    raw["alpha_kernel"] = {"kind": "constant", "value": 1.0, "table": [1.0]}
    with pytest.raises(ValidationError, match="ambiguous"):
        validate_scenario(raw)


def test_validate_requires_grid_section():
    raw = dict(S0_RAW)
    del raw["grid"]
    with pytest.raises(ValidationError, match="grid"):
        validate_scenario(raw)


def test_validate_requires_kernel_per_atom():
    raw = dict(S0_RAW)
    raw["levy"] = {"atoms": [[0.5, 1.0]]}
    with pytest.raises(ValidationError, match="atom"):
        validate_scenario(raw)


def test_validate_gamma_table_length():
    raw = dict(S0_RAW)
    raw["gamma"] = [0.0] * 5
    with pytest.raises(ValidationError, match="gamma"):
        validate_scenario(raw)


def test_validate_rejects_a_top_level_that_is_not_an_object():
    with pytest.raises(ValidationError, match="top-level JSON object expected, got list"):
        validate_scenario([S0_RAW])


@pytest.mark.parametrize("change, message", [
    ({"convention": "bogus"}, "unknown gamma_sign_convention 'bogus'"),
    ({"initial": -1.0}, "initial level must be > 0"),
    ({"pi_kernels": ()}, "pi_kernels has 0 entries for 1 atoms"),
])
def test_replace_cannot_break_an_invariant(change, message):
    # the spec checks itself, so a replaced field is checked as a parsed one
    spec = validate_scenario(dict(S0_RAW, levy={"atoms": [[-0.1, 0.5]]},
                                  pi_kernels=[{"kind": "constant", "value": -0.1}]))
    with pytest.raises(ValidationError, match=message):
        replace(spec, **change)


def test_spec_is_immutable(s0):
    with pytest.raises((AttributeError, TypeError)):
        s0.convention = "paper_ode"
