"""Domain model: time grids, two-time kernels, jump measures, scenarios.

Everything downstream (path generation, forward/backward solvers, the
control layer) consumes the immutable value types defined here:

* :class:`TimeGrid` -- uniform partition of ``[0, T]``.
* :class:`Kernel` -- coefficient ``K(t, s)`` on the triangle ``0 <= s <= t``.
* :class:`LevyMeasure` -- finite discrete measure of jump sizes.
* :class:`FiltrationMode` -- information available to the controller.
* :class:`ScenarioSpec` -- a model instance, which checks its own invariants.

``validate_scenario`` turns a raw dictionary (parsed JSON) into a
:class:`ScenarioSpec`.  Every type checks itself on construction, so
``dataclasses.replace`` re-checks too.  All types are frozen dataclasses
and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "KernelDomainError",
    "TimeGrid",
    "Kernel",
    "LevyMeasure",
    "FiltrationMode",
    "McSpec",
    "RegressionSpec",
    "ScenarioSpec",
    "CONVENTIONS",
    "build_time_grid",
    "validate_scenario",
    "trapezoid_weights",
    "time_quadrature_weights",
    "mean_se",
]

_REL_TOL = 1e-12
# the sign conventions of the discount rate (``controls._discount_sign``)
CONVENTIONS = ("discounting", "paper_ode")


class ValidationError(ValueError):
    """A scenario or one of its components violates an invariant."""


class KernelDomainError(ValidationError):
    """Kernel evaluated outside the triangle ``0 <= s <= t`` (or off-grid)."""


_NUMBERS = (int, np.integer, float, np.floating)


def _integer(name: str, value) -> int:
    """``value`` as an int; strings, bools and non-integral numbers are rejected."""
    # nan and inf leave a nan remainder
    if isinstance(value, bool) or not isinstance(value, _NUMBERS) or value % 1:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float; strings, bools and non-finite numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS) or not np.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _list(name: str, value) -> list:
    """``value`` as a list; null, a bare string or a number is rejected."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return list(value)


def _reals(name: str, values) -> np.ndarray:
    """A list of numbers as a float array, each entry through :func:`_real`."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValidationError(f"{name} must be a list of numbers, got {values!r}")
    return np.array([_real(f"{name}[{i}]", v) for i, v in enumerate(values)], dtype=float)


# --------------------------------------------------------------------------- #
# Time grid
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_0 = 0 < t_1 < ... < t_n = T``."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        raw = self.n_steps
        object.__setattr__(self, "n_steps", _integer("grid.n_steps", raw))
        # an integral 1e308 would otherwise reach numpy as an array dimension
        if not 2 <= self.n_steps <= 10**7:
            raise ValidationError(f"grid.n_steps must be an integer from 2 to 10**7, got {raw!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(0.0, self.horizon, self.n_steps + 1)
        nodes.flags.writeable = False  # computed once per grid and shared
        return nodes


def build_time_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Uniform grid with ``n_steps + 1`` nodes spanning ``[0, horizon]``."""
    return TimeGrid(horizon=float(horizon), n_steps=n_steps)


def trapezoid_weights(n_nodes: int, dt: float) -> np.ndarray:
    """Trapezoid weights over ``n_nodes`` nodes ``dt`` apart: ``dt`` inside,
    ``dt / 2`` at both ends."""
    w = np.full(n_nodes, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def time_quadrature_weights(grid: TimeGrid) -> np.ndarray:
    """Weights over nodes ``t_0 .. t_{n-1}`` integrating samples over ``[0, T]``.

    Trapezoid rule on ``[0, t_{n-1}]`` plus a left rectangle on the final
    interval: second-order accurate wherever the integrand is smooth while
    never sampling ``t = T`` (integrands such as the optimal consumption rate
    blow up there).
    """
    w = trapezoid_weights(grid.n_steps, grid.dt)
    w[-1] += grid.dt
    return w


def mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Mean of one Monte Carlo sample per path and its standard error (0.0 for one path)."""
    n = samples.shape[0]
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


# --------------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class Kernel:
    """Two-time coefficient ``K(t, s)`` defined on ``{0 <= s <= t}``.

    Three kinds are supported:

    * ``constant``   -- ``K(t, s) = value``;
    * ``exp_decay``  -- ``K(t, s) = amplitude * exp(-rate * (t - s))``;
    * ``table``      -- values given on the lower triangle of a grid,
      row-major, one row per ``t``-node.

    ``constant`` and ``exp_decay`` have an analytic first-argument derivative;
    ``table`` falls back to finite differences along the first index.  Both
    are ``amplitude * exp(-rate * (t - s))`` (``constant`` with rate 0), which
    ``exponential_form`` reports; the forward sweep takes that pair, forms
    no node matrix and runs as an exact Markovian lift in O(n_steps *
    n_paths).  Their parameters must be finite.  On a grid, ``column`` and
    ``d_first_column`` read one column of the triangle, ``at_nodes`` all.
    """

    kind: str
    value: float = 0.0
    amplitude: float = 0.0
    rate: float = 0.0
    table: np.ndarray | None = None  # flattened lower triangle, row-major
    table_n: int = 0

    # -- factories ----------------------------------------------------------

    @staticmethod
    def constant(value: float) -> "Kernel":
        return Kernel(kind="constant", value=_real("constant kernel value", value))

    @staticmethod
    def exp_decay(amplitude: float, rate: float) -> "Kernel":
        amplitude, rate = _real("exp_decay amplitude", amplitude), _real("exp_decay rate", rate)
        if rate < 0.0:
            raise ValidationError(f"exp_decay rate must be >= 0, got {rate}")
        return Kernel(kind="exp_decay", amplitude=amplitude, rate=rate)

    @staticmethod
    def from_table(values: Sequence[float], n_steps: int) -> "Kernel":
        values = np.asarray(values, dtype=float)
        expected = (n_steps + 1) * (n_steps + 2) // 2
        if values.ndim != 1 or values.size != expected:
            raise ValidationError(
                f"table kernel for n={n_steps} needs {expected} lower-triangular "
                f"values, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("table kernel contains non-finite entries")
        return Kernel(kind="table", table=values, table_n=int(n_steps))

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "exp_decay", "table"):
            raise ValidationError(f"unknown kernel kind {self.kind!r}")

    # -- queries ------------------------------------------------------------

    @property
    def time_invariant(self) -> bool:
        """True when ``K(t, s)`` does not depend on the first argument."""
        form = self.exponential_form
        return form is not None and form[1] == 0.0

    @property
    def exponential_form(self) -> tuple[float, float] | None:
        """``(amplitude, rate)`` with ``K(t, s) = amplitude * exp(-rate * (t - s))``.

        ``(value, 0.0)`` for a constant kernel, ``None`` for a table.
        """
        if self.kind == "constant":
            return self.value, 0.0
        if self.kind == "exp_decay":
            return self.amplitude, self.rate
        return None

    def __call__(self, t: float, s: float) -> float:
        if s > t + _REL_TOL * max(1.0, abs(t)):
            raise KernelDomainError(f"kernel evaluated outside triangle: t={t}, s={s}")
        if s < -_REL_TOL:
            raise KernelDomainError(f"kernel evaluated at negative time s={s}")
        form = self.exponential_form
        if form is not None:
            return form[0] * float(np.exp(-form[1] * (t - s)))
        raise KernelDomainError(
            "table kernels are evaluated on their grid through column() or "
            "at_nodes(); scalar off-grid queries are not defined"
        )

    def at_nodes(self, grid: TimeGrid) -> np.ndarray:
        """Matrix ``M[i, j] = K(t_i, t_j)`` for ``j <= i``; zeros above."""
        n, form, t = grid.n_steps, self.exponential_form, grid.nodes
        if form is not None:
            return np.tril(form[0] * np.exp(-form[1] * np.maximum(t[:, None] - t, 0.0)))
        out = np.zeros((n + 1, n + 1))
        out[np.tril_indices(n + 1)] = self._table_values(grid)
        return out

    def _table_values(self, grid: TimeGrid) -> np.ndarray:
        if self.table_n != grid.n_steps:
            raise KernelDomainError(
                f"table kernel built for n={self.table_n}, grid has n={grid.n_steps}"
            )
        return self.table

    def column(self, grid: TimeGrid, k: int) -> np.ndarray:
        """``K(t_i, t_k)`` for ``i = k .. n``: column ``k`` of ``at_nodes``
        from the diagonal down, without the matrix."""
        form, t = self.exponential_form, grid.nodes[k:]
        if form is not None:
            return form[0] * np.exp(-form[1] * (t - t[0]))
        # row i of the flat triangle starts at i (i + 1) / 2
        i = np.arange(k, grid.n_steps + 1)
        return self._table_values(grid)[i * (i + 1) // 2 + k]

    def d_first_column(self, grid: TimeGrid, k: int) -> np.ndarray:
        """``dK/dt (t_i, t_k)`` for ``i = k .. n``: analytic for constant /
        exp_decay, first-index finite differences for table kind (forward on
        the diagonal, central below it, backward on the last row)."""
        if self.kind == "exp_decay":
            return -self.rate * self.column(grid, k)
        if self.kind == "table" and k < grid.n_steps:
            return np.gradient(self.column(grid, k), grid.dt)
        return np.zeros(grid.n_steps + 1 - k)


# --------------------------------------------------------------------------- #
# Jump measure
# --------------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class LevyMeasure:
    """Finite discrete jump-size measure: atoms ``e_m`` with weights ``w_m``."""

    sizes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        sizes = np.atleast_1d(np.asarray(self.sizes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if sizes.shape != weights.shape:
            raise ValidationError("jump sizes and weights must have equal length")
        if np.any(sizes == 0.0):
            raise ValidationError("jump sizes must be nonzero")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ValidationError("jump weights must be positive and finite")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def from_atoms(atoms: Sequence[Sequence[float]]) -> "LevyMeasure":
        atoms = list(atoms)
        if not atoms:
            return LevyMeasure(sizes=np.empty(0), weights=np.empty(0))
        arr = np.asarray(atoms, dtype=object)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError("atoms must be [size, weight] pairs")
        arr = np.array([_reals(f"levy.atoms[{m}]", atom) for m, atom in enumerate(arr)])
        return LevyMeasure(sizes=arr[:, 0], weights=arr[:, 1])

    @property
    def n_atoms(self) -> int:
        return int(self.sizes.size)


# --------------------------------------------------------------------------- #
# Filtration / MC / regression configuration
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class FiltrationMode:
    """Information flow for conditional expectations.

    ``full`` conditions on the state at the current node, ``trivial`` on
    nothing (plain means), ``delay`` on the state lagged by ``delay`` time
    units.  A delay of zero is the full mode.
    """

    mode: str = "full"
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("full", "trivial", "delay"):
            raise ValidationError(f"unknown filtration mode {self.mode!r}")
        if self.delay < 0.0:
            raise ValidationError("delay must be >= 0")
        if self.mode == "delay" and self.delay == 0.0:
            object.__setattr__(self, "mode", "full")


@dataclass(frozen=True)
class McSpec:
    n_paths: int = 100_000
    seed: int = 42
    n_blocks: int = 8

    def __post_init__(self) -> None:
        # an integral 1e308 would otherwise reach numpy as an array dimension
        if not 1 <= self.n_paths <= 10**9:
            raise ValidationError("mc.n_paths must be an integer from 1 to 10**9")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.n_blocks < 1 or self.n_paths % self.n_blocks != 0:
            raise ValidationError(
                f"n_blocks ({self.n_blocks}) must divide n_paths ({self.n_paths})"
            )


@dataclass(frozen=True)
class RegressionSpec:
    degree: int = 2
    variables: tuple[str, ...] = ("x",)

    def __post_init__(self) -> None:
        if self.degree < 1 or self.degree > 8:
            raise ValidationError("regression degree must be in [1, 8]")
        # a tuple, not a set: an entry that is a list or an object is
        # compared, not hashed
        allowed = ("x", "log_x", "brownian", "jump_counts")
        for v in self.variables:
            if v not in allowed:
                raise ValidationError(f"regression.state entry {v!r} is not one of {allowed}")


# --------------------------------------------------------------------------- #
# Scenario
# --------------------------------------------------------------------------- #

def _extreme_node_values(kernel: Kernel, grid: TimeGrid) -> np.ndarray:
    """Values of ``kernel`` on the grid triangle that bound all the others.

    An analytic kernel is monotone in the lag ``t - s``, so its extremes
    (and any non-finite value) sit at the lags 0 and ``T``: ``K(T, T)`` and
    ``K(T, 0)``.  A table gives its flat triangle.
    """
    if kernel.exponential_form is None:
        return kernel._table_values(grid)
    t = grid.nodes[-1]
    return np.array([kernel(t, t), kernel(t, 0.0)])


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """A model instance that cannot be built, or ``replace``d, invalid.

    ``initial`` is the (positive, constant) starting level of the cash flow;
    a per-node table is accepted for simulation-only use.  ``pi_kernels``
    holds one two-time kernel per jump atom.  ``gamma`` is the deterministic
    discount/aggregator rate tabulated on the grid nodes.  Construction
    checks a known sign convention, a positive initial level, finite node
    tables of the right length, kernels finite on the grid triangle and one
    jump kernel per atom with ``1 + pi > 0`` everywhere.
    """

    grid: TimeGrid
    initial: float | np.ndarray
    alpha: Kernel
    beta: Kernel
    pi_kernels: tuple[Kernel, ...]
    levy: LevyMeasure
    gamma: np.ndarray
    filtration: FiltrationMode = field(default_factory=FiltrationMode)
    convention: str = "discounting"
    mc: McSpec = field(default_factory=McSpec)
    regression: RegressionSpec = field(default_factory=RegressionSpec)

    def __post_init__(self) -> None:
        nodes = self.grid.n_steps + 1
        if self.convention not in CONVENTIONS:
            raise ValidationError(f"unknown gamma_sign_convention {self.convention!r}")
        if np.isscalar(self.initial):
            if _real("initial", self.initial) <= 0.0:
                raise ValidationError(f"initial level must be > 0, got {self.initial}")
        elif np.shape(self.initial) != (nodes,):
            raise ValidationError("initial table must have one value per node")
        elif not np.all(np.isfinite(self.initial)):
            raise ValidationError("initial table contains non-finite entries")
        elif self.initial[0] <= 0.0:
            raise ValidationError("initial level at t=0 must be > 0")
        if np.shape(self.gamma) != (nodes,):
            raise ValidationError(f"gamma table must have {nodes} node values")
        if not np.all(np.isfinite(self.gamma)):
            raise ValidationError("gamma contains non-finite entries")
        if len(self.pi_kernels) != self.levy.n_atoms:
            raise ValidationError(
                f"pi_kernels has {len(self.pi_kernels)} entries for {self.levy.n_atoms} atoms"
            )
        # Kernels must be finite on the whole triangle (a NaN would pass the
        # positivity test below); jump factors must keep the state positive.
        for name, k in (("alpha", self.alpha), ("beta", self.beta)):
            if not np.all(np.isfinite(_extreme_node_values(k, self.grid))):
                raise ValidationError(f"{name} kernel produced non-finite values")
        for m, k in enumerate(self.pi_kernels):
            vals = _extreme_node_values(k, self.grid)
            if not np.all(np.isfinite(vals)):
                raise ValidationError(f"jump kernel {m} produced non-finite values")
            if np.any(vals <= -1.0 + 1e-12):
                raise ValidationError(
                    f"jump kernel {m}: 1 + pi must stay positive, min pi = {vals.min():.6g}"
                )

    @property
    def n_atoms(self) -> int:
        return self.levy.n_atoms

    @property
    def time_invariant(self) -> bool:
        """All kernels constant in the first argument and constant initial level."""
        kernels_ok = (
            self.alpha.time_invariant
            and self.beta.time_invariant
            and all(k.time_invariant for k in self.pi_kernels)
        )
        return kernels_ok and np.isscalar(self.initial)

    @property
    def initial_at_nodes(self) -> np.ndarray:
        if np.isscalar(self.initial):
            return np.full(self.grid.n_steps + 1, float(self.initial))
        return np.asarray(self.initial, dtype=float)

    def pi_values(self) -> np.ndarray:
        """Constant jump coefficients ``pi_m`` for time-invariant scenarios."""
        if not self.time_invariant:
            raise ValidationError("pi_values() requires time-invariant kernels")
        return np.array([k(0.0, 0.0) for k in self.pi_kernels], dtype=float)

    def with_mc(self, **kwargs) -> "ScenarioSpec":
        return replace(self, mc=replace(self.mc, **kwargs))


def _kernel_from_raw(raw, n_steps: int, field_name: str) -> Kernel:
    if isinstance(raw, Kernel):
        return raw
    if isinstance(raw, (int, float)):
        return Kernel.constant(_real(field_name, raw))
    if not isinstance(raw, dict):
        raise ValidationError(f"{field_name}: expected a kernel object, got {type(raw).__name__}")
    kind = raw.get("kind")
    if kind is None:
        raise ValidationError(f"{field_name}: missing 'kind'")
    if "value" in raw and ("table" in raw or "values" in raw):
        raise ValidationError(f"{field_name}: both 'value' and 'table' given (ambiguous)")
    if kind == "constant":
        if "value" not in raw:
            raise ValidationError(f"{field_name}: constant kernel needs 'value'")
        return Kernel.constant(_real(f"{field_name}.value", raw["value"]))
    if kind == "exp_decay":
        try:
            return Kernel.exp_decay(_real(f"{field_name}.amplitude", raw["amplitude"]),
                                    _real(f"{field_name}.rate", raw["rate"]))
        except KeyError as exc:
            raise ValidationError(f"{field_name}: exp_decay kernel needs {exc}") from exc
    if kind == "table":
        key = "values" if "values" in raw else "table"
        if raw.get(key) is None:
            raise ValidationError(f"{field_name}: table kernel needs 'values'")
        n = raw.get("n", n_steps)
        if n != n_steps:
            raise ValidationError(f"{field_name}: table n={n} does not match grid n={n_steps}")
        return Kernel.from_table(_reals(f"{field_name}.{key}", raw[key]), n_steps)
    raise ValidationError(f"{field_name}: unknown kernel kind {kind!r}")


def validate_scenario(raw: dict) -> ScenarioSpec:
    """Parse a scenario given as a dict (JSON shape) into a :class:`ScenarioSpec`.

    Fills the defaults and rejects fields of the wrong type, non-finite real
    fields and non-integral integer fields, each named as written; the
    built types check their own invariants.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"top-level JSON object expected, got {type(raw).__name__}")
    if "grid" not in raw:
        raise ValidationError("missing 'grid' section")
    for section in ("grid", "levy", "filtration", "mc", "regression"):
        if not isinstance(raw.get(section, {}), dict):
            raise ValidationError(f"'{section}' section must be a JSON object, "
                                  f"got {raw[section]!r}")
    g = raw["grid"]
    try:
        grid = build_time_grid(_real("grid.horizon", g["horizon"]), g["n_steps"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"grid section malformed: {exc}") from exc

    gamma = raw.get("gamma", 0.0)
    gamma = (np.full(grid.n_steps + 1, _real("gamma", gamma)) if np.isscalar(gamma)
             else _reals("gamma", gamma))
    filt_raw = raw.get("filtration", {})
    filtration = FiltrationMode(filt_raw.get("mode", "full"),
                                _real("filtration.delay", filt_raw.get("delay", 0.0)))
    mc_raw = raw.get("mc", {})
    mc = McSpec(**{k: _integer(f"mc.{k}", v) for k, v in mc_raw.items()
                   if k in ("n_paths", "seed", "n_blocks")})
    reg_raw = raw.get("regression", {})
    regression = RegressionSpec(
        degree=_integer("regression.degree", reg_raw.get("degree", 2)),
        variables=tuple(_list("regression.state", reg_raw.get("state", ["x"]))),
    )
    initial = raw.get("initial")
    if initial is None:
        raise ValidationError("missing 'initial'")
    initial = _real("initial", initial) if np.isscalar(initial) else _reals("initial", initial)

    return ScenarioSpec(
        grid=grid,
        initial=initial,
        levy=LevyMeasure.from_atoms(_list("levy.atoms", raw.get("levy", {}).get("atoms", []))),
        alpha=_kernel_from_raw(raw.get("alpha_kernel", 0.0), grid.n_steps, "alpha_kernel"),
        beta=_kernel_from_raw(raw.get("beta_kernel", 0.0), grid.n_steps, "beta_kernel"),
        pi_kernels=tuple(
            _kernel_from_raw(k, grid.n_steps, f"pi_kernels[{m}]")
            for m, k in enumerate(_list("pi_kernels", raw.get("pi_kernels", [])))
        ),
        gamma=gamma,
        filtration=filtration,
        convention=raw.get("gamma_sign_convention", "discounting"),
        mc=mc,
        regression=regression,
    )
