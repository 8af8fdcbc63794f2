"""Stochastic-gradient utilities for a small functional calculus.

Functionals are composition trees over three primitives -- constants, Wiener
integrals ``int f dB`` with deterministic integrands, and compensated jump
integrals ``int int h dN~`` with deterministic marks -- combined by sums,
products and integer powers.  Both derivative operators act on a tree:

* the Brownian derivative at a node follows the linear chain rule and is
  returned as another tree;
* the jump derivative at ``(node, atom)`` is the difference form
  ``f.evaluate_with_jump(noise, node, atom) - f.evaluate(noise)``: the tree
  re-evaluated with one extra jump inserted, minus the plain evaluation.

The duality checkers estimate both sides of the integration-by-parts
identities on the same noise.  Their integrands are adapted by signature
(``psi(step, b)`` and ``phi(step, atom, c)`` read only the levels at
``t_step``), so by the tower property the conditional expectations drop out
of the right-hand sides:

    E[ F int Psi dB ]      = E[ int E[D_t F | F_t] Psi(t) dt ]
                           = E[ int D_t F Psi(t) dt ]
    E[ F int int Phi dN~ ] = E[ int int Phi(t,e) E[D_{t,e} F | F_t] nu(de) dt ]
                           = E[ int int Phi(t,e) D_{t,e} F nu(de) dt ]

Each right-hand side is the mean of its unprojected per-path samples, with
their standard error.  No projection is needed: a regression on the state
would leave the mean unchanged and report a standard error below the
estimator's own.  Both sides read the levels as running rows, so no bundle
forms its array of levels.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ValidationError, time_quadrature_weights
from .paths import NoiseBundle, _path_chunks, _run_path_ranges

__all__ = [
    "Functional",
    "Const",
    "WienerIntegral",
    "JumpIntegral",
    "Sum",
    "Product",
    "Power",
    "DualityResult",
    "verify_duality_brownian",
    "verify_duality_jump",
    "duality_rows",
]


class Functional:
    """Base node of the composition tree."""

    def evaluate(self, noise: NoiseBundle) -> np.ndarray:
        raise NotImplementedError

    def evaluate_with_jump(self, noise: NoiseBundle, node: int, atom: int) -> np.ndarray:
        """Evaluate with one extra jump of ``atom`` inserted at ``node``."""
        raise NotImplementedError

    def d_brownian(self, node: int) -> "Functional":
        """Chain-rule derivative with respect to the Brownian noise at a node."""
        raise NotImplementedError

    # operator sugar keeps test code readable
    def __add__(self, other):
        return Sum(self, _wrap(other))

    def __radd__(self, other):
        return Sum(_wrap(other), self)

    def __mul__(self, other):
        return Product(self, _wrap(other))

    def __rmul__(self, other):
        return Product(_wrap(other), self)

    def __pow__(self, k: int):
        return Power(self, k)


def _wrap(v) -> "Functional":
    return v if isinstance(v, Functional) else Const(float(v))


@dataclass
class Const(Functional):
    value: float

    def evaluate(self, noise):
        return np.full(noise.n_paths, self.value)

    def evaluate_with_jump(self, noise, node, atom):
        return self.evaluate(noise)

    def d_brownian(self, node):
        return Const(0.0)


class WienerIntegral(Functional):
    """``int_0^T f(t) dB(t)`` with a deterministic integrand on left nodes."""

    def __init__(self, f: Callable[[float], float] | np.ndarray | float = 1.0):
        self.f = f
        self._memo: tuple[weakref.ref, np.ndarray] | None = None

    def _values(self, noise: NoiseBundle) -> np.ndarray:
        t = noise.grid.nodes[:-1]
        if callable(self.f):
            return np.array([float(self.f(ti)) for ti in t])
        if np.isscalar(self.f):
            return np.full(noise.n_steps, float(self.f))
        vals = np.asarray(self.f, dtype=float)
        if vals.shape[0] != noise.n_steps:
            raise ValidationError("integrand table must have one value per step")
        return vals

    def evaluate(self, noise):
        # one-slot memo: derivative trees re-evaluate the same primitive at
        # every node of a duality sweep.  It is keyed on the bundle through a
        # weak reference, because a later bundle can reuse a freed one's id().
        if self._memo is not None and self._memo[0]() is noise:
            return self._memo[1]
        vals = noise.d_brownian @ self._values(noise)
        self._memo = (weakref.ref(noise), vals)
        return vals

    def evaluate_with_jump(self, noise, node, atom):
        return self.evaluate(noise)  # a jump does not move the Brownian path

    def d_brownian(self, node):
        f = self.f
        if callable(f):
            return _NodeConst(lambda noise: float(f(noise.grid.nodes[node])))
        if np.isscalar(f):
            return Const(float(f))
        return _NodeConst(lambda noise, _v=np.asarray(f, float), _n=node: float(_v[_n]))


class _NodeConst(Functional):
    """Deterministic value resolved against the noise grid at evaluation time."""

    def __init__(self, fn: Callable[[NoiseBundle], float]):
        self.fn = fn

    def evaluate(self, noise):
        return np.full(noise.n_paths, self.fn(noise))

    def evaluate_with_jump(self, noise, node, atom):
        return self.evaluate(noise)

    def d_brownian(self, node):
        return Const(0.0)


class JumpIntegral(Functional):
    """``int_0^T int h(t, e) dN~`` with deterministic marks on left nodes."""

    def __init__(self, h: Callable[[float, float], float] | float = 1.0):
        self.h = h
        self._memo: tuple[weakref.ref, np.ndarray] | None = None

    def _mark(self, noise: NoiseBundle, node: int, atom: int) -> float:
        h = self.h
        return float(h(noise.grid.nodes[node], noise.levy.sizes[atom]) if callable(h) else h)

    def _values(self, noise: NoiseBundle) -> np.ndarray:
        return np.array([[self._mark(noise, i, q) for i in range(noise.n_steps)]
                         for q in range(noise.levy.n_atoms)])

    def evaluate(self, noise):
        if noise.levy.n_atoms == 0:
            return np.zeros(noise.n_paths)
        if self._memo is not None and self._memo[0]() is noise:
            return self._memo[1]
        vals = self._values(noise)
        # compensated one chunk of paths at a time: the bundle never holds a
        # float copy of its counts
        out = np.empty(noise.n_paths)
        for rows in _path_chunks(0, noise.n_paths):
            out[rows] = np.einsum("ms,mps->p", vals, noise.compensated_rows(rows))
        self._memo = (weakref.ref(noise), out)
        return out

    def evaluate_with_jump(self, noise, node, atom):
        return self.evaluate(noise) + self._mark(noise, node, atom)

    def d_brownian(self, node):
        return Const(0.0)


@dataclass
class Sum(Functional):
    left: Functional
    right: Functional

    def evaluate(self, noise):
        return self.left.evaluate(noise) + self.right.evaluate(noise)

    def evaluate_with_jump(self, noise, node, atom):
        return self.left.evaluate_with_jump(noise, node, atom) + \
            self.right.evaluate_with_jump(noise, node, atom)

    def d_brownian(self, node):
        return Sum(self.left.d_brownian(node), self.right.d_brownian(node))


@dataclass
class Product(Functional):
    left: Functional
    right: Functional

    def evaluate(self, noise):
        return self.left.evaluate(noise) * self.right.evaluate(noise)

    def evaluate_with_jump(self, noise, node, atom):
        return self.left.evaluate_with_jump(noise, node, atom) * \
            self.right.evaluate_with_jump(noise, node, atom)

    def d_brownian(self, node):
        return Sum(
            Product(self.left.d_brownian(node), self.right),
            Product(self.left, self.right.d_brownian(node)),
        )


@dataclass
class Power(Functional):
    base: Functional
    exponent: int

    def __post_init__(self):
        if not (1 <= int(self.exponent) <= 4):
            raise ValidationError("power exponent limited to 1..4")

    def evaluate(self, noise):
        return self.base.evaluate(noise) ** self.exponent

    def evaluate_with_jump(self, noise, node, atom):
        return self.base.evaluate_with_jump(noise, node, atom) ** self.exponent

    def d_brownian(self, node):
        if self.exponent == 1:
            return self.base.d_brownian(node)
        return Product(
            Product(Const(float(self.exponent)), Power(self.base, self.exponent - 1)),
            self.base.d_brownian(node),
        )


# --------------------------------------------------------------------------- #
# Duality verifiers
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class DualityResult:
    name: str
    lhs: float
    rhs: float
    se_lhs: float
    se_rhs: float

    @property
    def combined_se(self) -> float:
        return float(np.hypot(self.se_lhs, self.se_rhs))

    @property
    def gap_in_se(self) -> float:
        se = self.combined_se
        return abs(self.lhs - self.rhs) / se if se > 0 else 0.0


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    n = samples.shape[0]
    if n < 2:
        raise ValidationError("duality needs n_paths >= 2 for a standard error")
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(n))


def _running_levels(increments: np.ndarray):
    """Yield the levels ``increments[..., :i].sum(-1)`` at nodes ``0 .. n - 1``:
    ``B(t_i)`` from ``d_brownian[rows]``, ``N(t_i)`` ``(m, len)`` from
    ``jump_counts[:, rows]``.  Each is one running row advanced by the
    ``np.add`` that sums the bundle's cached levels, so bit for bit theirs."""
    level = np.zeros(increments.shape[:-1])
    for i in range(increments.shape[-1]):
        yield level
        np.add(level, increments[..., i], out=level)


def verify_duality_brownian(
    f: Functional,
    psi: Callable[[int, np.ndarray], np.ndarray],
    noise: NoiseBundle,
    name: str = "brownian",
) -> DualityResult:
    """Both sides of the Brownian integration-by-parts identity on one noise.

    ``psi(step, b)`` returns the adapted integrand at the left node from
    ``b = B(t_step)`` of the paths at hand (a running row: do not keep it).
    It is called more than once per node (once for the right-hand side, once
    per range of paths for the left-hand side) and from worker threads, so it
    must be pure.  The right-hand side averages ``sum_i w_i D_i F psi_i``.
    """
    n_paths = noise.n_paths
    # psi is read one node at a time, for both sides, and never stored whole;
    # the stochastic integral runs on one range of paths per CPU
    integral = np.zeros(n_paths)

    def integrate(rows: slice) -> None:
        for i, b in enumerate(_running_levels(noise.d_brownian[rows])):
            integral[rows] += np.broadcast_to(psi(i, b), b.shape) * noise.d_brownian[rows, i]

    _run_path_ranges(integrate, n_paths)
    w = time_quadrature_weights(noise.grid)
    rhs_samples = np.zeros(n_paths)
    for i, b in enumerate(_running_levels(noise.d_brownian)):
        d_f = f.d_brownian(i).evaluate(noise)
        rhs_samples += d_f * np.broadcast_to(psi(i, b), (n_paths,)) * w[i]
    lhs_samples = f.evaluate(noise) * integral
    lhs, se_lhs = _mean_se(lhs_samples)
    rhs, se_rhs = _mean_se(rhs_samples)
    return DualityResult(name=name, lhs=lhs, rhs=rhs, se_lhs=se_lhs, se_rhs=se_rhs)


def verify_duality_jump(
    f: Functional,
    phi: Callable[[int, int, np.ndarray], np.ndarray],
    noise: NoiseBundle,
    name: str = "jump",
) -> DualityResult:
    """Both sides of the jump integration-by-parts identity on one noise.

    ``phi(step, atom, c)`` returns the adapted two-argument integrand at the
    left node from the counts ``c = N(t_step)`` ``(m, len)`` of the paths at
    hand (a running array: do not keep it).  It is called more than once per
    (node, atom) (once for the right-hand side, once per range of paths for
    the left-hand side) and from worker threads, so it must be pure.  The
    right-hand side averages ``sum_{i,q} w_i nu_q (F^{+(i,q)} - F) phi_{i,q}``.
    """
    if noise.levy.n_atoms == 0:
        raise ValidationError("jump duality needs at least one atom")
    m = noise.levy.n_atoms
    n_paths = noise.n_paths
    f_vals = f.evaluate(noise)
    w_dt = noise.levy.weights * noise.grid.dt
    lhs_samples = np.zeros(n_paths)

    def integrate(rows: slice) -> None:
        # the counts are compensated one step of one range at a time, never
        # as a whole float array
        for i, c in enumerate(_running_levels(noise.jump_counts[:, rows])):
            for q in range(m):
                comp = np.subtract(noise.jump_counts[q, rows, i], w_dt[q], dtype=float)
                lhs_samples[rows] += np.broadcast_to(phi(i, q, c), comp.shape) * comp

    _run_path_ranges(integrate, n_paths)
    lhs_samples *= f_vals
    w_t = time_quadrature_weights(noise.grid)
    rhs_samples = np.zeros(n_paths)
    for i, c in enumerate(_running_levels(noise.jump_counts)):
        for q, w in enumerate(noise.levy.weights):
            # the jump derivative of f at (i, q), with f evaluated once above
            d_f = f.evaluate_with_jump(noise, i, q) - f_vals
            rhs_samples += np.broadcast_to(phi(i, q, c), (n_paths,)) * d_f * w * w_t[i]
    lhs, se_lhs = _mean_se(lhs_samples)
    rhs, se_rhs = _mean_se(rhs_samples)
    return DualityResult(name=name, lhs=lhs, rhs=rhs, se_lhs=se_lhs, se_rhs=se_rhs)


def duality_rows(results: list[DualityResult]) -> list[dict]:
    return [
        {
            "identity": r.name,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "se_lhs": r.se_lhs,
            "se_rhs": r.se_rhs,
            "gap_over_se": r.gap_in_se,
        }
        for r in results
    ]
