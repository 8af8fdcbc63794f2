"""Stochastic gradients of B(T), Ñ(T) and their powers.

The functionals are the Brownian terminal value ``B(T) = int dB``
(:class:`WienerIntegral`), the compensated jump count
``Ñ(T) = int int dN~`` with a unit mark on every atom
(:class:`JumpIntegral`), and their integer powers 1 to 4 (:class:`Power`).
Both derivatives are evaluations on the paths of a noise bundle, as they
are random variables in the duality:

* the Brownian derivative ``f.d_brownian(noise, node)`` is ``D_{t_node} F``
  by the chain rule, a scalar where it is deterministic;
* the jump derivative at ``(node, atom)`` is the difference form
  ``f.evaluate_with_jump(noise, node, atom) - f.evaluate(noise)``: the
  functional re-evaluated with one extra jump inserted, minus the plain
  evaluation.

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
estimator's own.

Every sample is per path, so the checkers never form the noise: they stream
it from the generator in pieces of a few chunks of paths
(``paths.stream_noise``), run one pass per piece for all the identities they
are given, with both sides reading the levels as running rows, and keep only
each identity's ``(N,)`` sample rows.  Their memory grows with ``n_paths``,
not ``n_steps x n_paths``: one piece's buffers per worker plus the sample
rows.  With jumps, a block's normals are held only when some identity's
``F`` reads them (:attr:`Functional.reads_brownian`); otherwise they are
drawn and dropped a chunk at a time, and the pieces carry a NaN broadcast in
their place.  Deterministic derivatives evaluate to scalars, so a piece
costs its numpy work and little else.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import LevyMeasure, TimeGrid, ValidationError, mean_se, time_quadrature_weights
from .paths import NoiseBundle, stream_noise

__all__ = [
    "Functional",
    "WienerIntegral",
    "JumpIntegral",
    "Power",
    "DualityResult",
    "verify_duality_brownian",
    "verify_duality_jump",
]


class Functional:
    """A functional of the noise: ``B(T)``, ``Ñ(T)`` or a power of one.

    ``evaluate`` and ``d_brownian`` return one value per path of ``noise``,
    or a scalar where the value is deterministic (the derivative of a Wiener
    integral).  ``reads_brownian`` says whether ``evaluate`` reads the
    Brownian increments; a functional that does not declare it is taken to
    read them.
    """

    reads_brownian = True

    def evaluate(self, noise: NoiseBundle) -> np.ndarray:
        raise NotImplementedError

    def evaluate_with_jump(self, noise: NoiseBundle, node: int, atom: int) -> np.ndarray:
        """Evaluate with one extra jump of ``atom`` inserted at ``node``."""
        raise NotImplementedError

    def d_brownian(self, noise: NoiseBundle, node: int) -> np.ndarray | float:
        """``D_{t_node} F`` on the paths of ``noise``, by the chain rule."""
        raise NotImplementedError

    def __pow__(self, k: int):
        return Power(self, k)


class WienerIntegral(Functional):
    """``B(T) = int_0^T dB(t)``, summed from the increments."""

    def __init__(self):
        self._memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _values(self, noise: NoiseBundle) -> np.ndarray:
        # a ones vector (a ones table for Ñ(T)) rather than a row sum: the
        # product's rounding is the one the pinned values read
        return np.ones(noise.n_steps)

    def evaluate(self, noise):
        # memo per bundle: a power's derivative reads its base at every node
        # of a duality pass, and workers pass different blocks at once.  Its
        # keys are weak, so an entry dies with its bundle and a later bundle
        # that reuses a freed one's id() is never served it.
        vals = self._memo.get(noise)
        if vals is None:
            vals = self._memo[noise] = noise.d_brownian @ self._values(noise)
        return vals

    def evaluate_with_jump(self, noise, node, atom):
        return self.evaluate(noise)  # a jump does not move the Brownian path

    def d_brownian(self, noise, node):
        return 1.0


class JumpIntegral(Functional):
    """``Ñ(T) = int_0^T int dN~``: the compensated count of jumps, a unit
    mark on every atom."""

    reads_brownian = False

    def __init__(self):
        self._memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _values(self, noise: NoiseBundle) -> np.ndarray:
        return np.ones((noise.levy.n_atoms, noise.n_steps))

    def evaluate(self, noise):
        if noise.levy.n_atoms == 0:
            return np.zeros(noise.n_paths)
        out = self._memo.get(noise)
        if out is None:
            vals = self._values(noise)
            # the counts as drawn (einsum casts them a buffer at a time), less
            # the deterministic compensator dt sum_q w_q n
            out = np.einsum("ms,mps->p", vals, noise.jump_counts)
            out -= noise.grid.dt * float(noise.levy.weights @ vals.sum(axis=1))
            self._memo[noise] = out
        return out

    def evaluate_with_jump(self, noise, node, atom):
        return self.evaluate(noise) + 1.0

    def d_brownian(self, noise, node):
        return 0.0


@dataclass
class Power(Functional):
    base: Functional
    exponent: int

    def __post_init__(self):
        k = self.exponent
        if type(k) is not int or not 1 <= k <= 4:
            raise ValidationError(f"power exponent must be an int in 1..4, got {k!r}")

    @property
    def reads_brownian(self) -> bool:
        return self.base.reads_brownian

    def evaluate(self, noise):
        return self.base.evaluate(noise) ** self.exponent

    def evaluate_with_jump(self, noise, node, atom):
        return self.base.evaluate_with_jump(noise, node, atom) ** self.exponent

    def d_brownian(self, noise, node):
        k, base = self.exponent, self.base
        if k == 1:
            return base.d_brownian(noise, node)
        # the base itself for a square, not a copy of its values
        rest = base.evaluate(noise) if k == 2 else base.evaluate(noise) ** (k - 1)
        return (float(k) * rest) * base.d_brownian(noise, node)


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


def _running_levels(increments: np.ndarray):
    """Yield the levels ``increments[..., :i].sum(-1)`` at nodes ``0 .. n - 1``:
    ``B(t_i)`` from ``d_brownian``, ``N(t_i)`` ``(m, len)`` from
    ``jump_counts``.  Each is one running row advanced by the ``np.add`` that
    sums the bundle's cached levels, so bit for bit theirs."""
    level = np.zeros(increments.shape[:-1])
    for i in range(increments.shape[-1]):
        yield level
        np.add(level, increments[..., i], out=level)


# One identity: its name, the functional F and the adapted integrand.
Identity = tuple[str, Functional, Callable[..., np.ndarray]]


def _stream_duality(piece_pass, identities: list[Identity], grid: TimeGrid,
                    levy: LevyMeasure, n_paths: int, seed: int, n_blocks: int,
                    store_brownian: bool = True) -> list[DualityResult]:
    """Run ``piece_pass(piece, lhs, rhs)`` on each piece of the stream, then
    reduce each identity's ``(N,)`` sample rows once.

    ``lhs`` and ``rhs`` are the piece's columns of the ``(k, N)`` sample
    arrays, one row per identity; the pass fills them.  ``store_brownian``
    is handed to ``stream_noise``.
    """
    if n_paths < 2:
        raise ValidationError(f"duality needs n_paths >= 2 for a standard error, got {n_paths}")
    lhs = np.empty((len(identities), n_paths))
    rhs = np.empty((len(identities), n_paths))
    stream_noise(grid, levy, n_paths, seed, n_blocks,
                 lambda rows, piece: piece_pass(piece, lhs[:, rows], rhs[:, rows]),
                 store_brownian)
    results = []
    for j, (name, _, _) in enumerate(identities):
        (lhs_mean, se_lhs), (rhs_mean, se_rhs) = mean_se(lhs[j]), mean_se(rhs[j])
        results.append(DualityResult(name=name, lhs=lhs_mean, rhs=rhs_mean,
                                     se_lhs=se_lhs, se_rhs=se_rhs))
    return results


def _checked(value, shape: tuple[int, ...]):
    """An integrand value, which must be a scalar or one value per path."""
    if np.shape(value) not in ((), (1,), shape):
        raise ValueError(f"integrand of shape {np.shape(value)} for {shape[0]} paths")
    return value


def _brownian_pass(identities: list[Identity], noise: NoiseBundle,
                   lhs: np.ndarray, rhs: np.ndarray) -> None:
    d_b = noise.d_brownian
    w = time_quadrature_weights(noise.grid)
    integrals = np.zeros(lhs.shape)
    rhs[:] = 0.0
    for i, b in enumerate(_running_levels(d_b)):
        for j, (_, f, psi) in enumerate(identities):
            psi_i = _checked(psi(i, b), b.shape)
            integrals[j] += psi_i * d_b[:, i]
            rhs[j] += f.d_brownian(noise, i) * psi_i * w[i]
    for j, (_, f, _) in enumerate(identities):
        np.multiply(f.evaluate(noise), integrals[j], out=lhs[j])


def verify_duality_brownian(
    identities: list[Identity],
    grid: TimeGrid,
    levy: LevyMeasure,
    n_paths: int,
    seed: int,
    n_blocks: int,
) -> list[DualityResult]:
    """Both sides of the Brownian integration-by-parts identity for each of
    ``identities`` ``(name, F, psi)``, on the noise ``generate_noise`` draws
    with the same arguments, streamed in pieces.

    ``psi(step, b)`` returns the adapted integrand at the left node from
    ``b = B(t_step)`` of the piece's paths (a running row: do not keep it),
    a scalar or one value per path.  It is called once per node per piece,
    from worker threads, so it must be pure.  The right-hand side averages
    ``sum_i w_i D_i F psi_i``, with ``D_i F = F.d_brownian(piece, i)``
    evaluated on the piece's paths.
    """
    return _stream_duality(
        lambda piece, lhs, rhs: _brownian_pass(identities, piece, lhs, rhs),
        identities, grid, levy, n_paths, seed, n_blocks)


def _jump_pass(identities: list[Identity], noise: NoiseBundle,
               lhs: np.ndarray, rhs: np.ndarray) -> None:
    counts = noise.jump_counts
    weights = noise.levy.weights
    w_dt = weights * noise.grid.dt
    w_t = time_quadrature_weights(noise.grid)
    f_vals = [f.evaluate(noise) for _, f, _ in identities]
    lhs[:] = 0.0
    rhs[:] = 0.0
    for i, c in enumerate(_running_levels(counts)):
        for q in range(noise.levy.n_atoms):
            # the counts are compensated one step at a time, never as a
            # whole float array
            comp = np.subtract(counts[q, :, i], w_dt[q], dtype=float)
            for j, (_, f, phi) in enumerate(identities):
                phi_iq = _checked(phi(i, q, c), comp.shape)
                lhs[j] += phi_iq * comp
                # the jump derivative of f at (i, q), with f evaluated once above
                d_f = f.evaluate_with_jump(noise, i, q) - f_vals[j]
                rhs[j] += phi_iq * d_f * weights[q] * w_t[i]
    for j, f_val in enumerate(f_vals):
        lhs[j] *= f_val


def verify_duality_jump(
    identities: list[Identity],
    grid: TimeGrid,
    levy: LevyMeasure,
    n_paths: int,
    seed: int,
    n_blocks: int,
) -> list[DualityResult]:
    """Both sides of the jump integration-by-parts identity for each of
    ``identities`` ``(name, F, phi)``, on the noise ``generate_noise`` draws
    with the same arguments, streamed in pieces.

    ``phi(step, atom, c)`` returns the adapted two-argument integrand at the
    left node from the counts ``c = N(t_step)`` ``(m, len)`` of the piece's
    paths (a running array: do not keep it), a scalar or one value per
    path.  It is called once per (node, atom) per piece, from worker
    threads, so it must be pure.  The right-hand side averages
    ``sum_{i,q} w_i nu_q (F^{+(i,q)} - F) phi_{i,q}``.  ``F`` may read the
    Brownian noise too: the pieces carry their paths' normals when some
    identity's ``F.reads_brownian`` holds.  When none does, the normals are
    drawn and dropped, and the pieces carry a NaN broadcast in their place,
    so a functional that reads them while declaring it does not gets NaN.
    """
    if levy.n_atoms == 0:
        raise ValidationError("jump duality needs at least one atom")
    return _stream_duality(
        lambda piece, lhs, rhs: _jump_pass(identities, piece, lhs, rhs),
        identities, grid, levy, n_paths, seed, n_blocks,
        any(f.reads_brownian for _, f, _ in identities))

