"""Stochastic gradients of B(T), Ñ(T) and their powers.

The functionals are ``X(T)^k`` for ``k`` in 1..4, where ``X(T)`` is the
Brownian terminal value ``B(T) = int dB`` (:func:`WienerIntegral`) or the
compensated jump count ``Ñ(T) = int int dN~`` with a unit mark on every atom
(:func:`JumpIntegral`): one frozen value, :class:`Functional`.  Both
stochastic gradients have closed forms that do not depend on the node:

* the Brownian derivative is ``D_t X^k = k X^(k-1)`` for ``B(T)`` (``1`` at
  ``k = 1``) and ``0`` for ``Ñ(T)``;
* the jump derivative at any ``(node, atom)`` is the difference form
  ``(X + 1)^k - X^k`` for ``Ñ(T)``, the functional with one extra jump
  inserted minus the plain one, and ``0`` for ``B(T)``, whose path a jump
  does not move.

A duality pass sums ``X`` once per piece for each base its identities read
(``B(T)`` by a row sum, bit for bit ``brownian_levels[:, n]``; ``Ñ(T)`` as
the exact count sum less the compensator) and forms each ``F`` and its
gradients from it; the node loops only read them.  No value depends on how
the paths are split, and nothing is memoised.

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
their place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import LevyMeasure, TimeGrid, ValidationError, mean_se, time_quadrature_weights
from .paths import NoiseBundle, stream_noise

__all__ = [
    "Functional",
    "WienerIntegral",
    "JumpIntegral",
    "DualityResult",
    "verify_duality_brownian",
    "verify_duality_jump",
]


def _exponent(k) -> int:
    if type(k) is not int or not 1 <= k <= 4:
        raise ValidationError(f"power exponent must be an int in 1..4, got {k!r}")
    return k


@dataclass(frozen=True)
class Functional:
    """``X(T)^exponent``: ``X`` is ``Ñ(T)`` when ``jump`` holds, else ``B(T)``.

    ``f ** k`` multiplies the exponent; every exponent is an ``int`` in 1..4.
    """

    jump: bool
    exponent: int = 1

    def __post_init__(self):
        _exponent(self.exponent)

    @property
    def reads_brownian(self) -> bool:
        """Whether ``F`` reads the Brownian increments."""
        return not self.jump

    def __pow__(self, k: int) -> Functional:
        return Functional(self.jump, self.exponent * _exponent(k))


def WienerIntegral() -> Functional:
    """``B(T) = int_0^T dB(t)``."""
    return Functional(jump=False)


def JumpIntegral() -> Functional:
    """``Ñ(T) = int_0^T int dN~``: the compensated count of jumps, a unit
    mark on every atom."""
    return Functional(jump=True)


# One identity: its name, the functional F and the adapted integrand.
Identity = tuple[str, Functional, Callable[..., np.ndarray]]


def _terminal(noise: NoiseBundle, jump: bool) -> np.ndarray:
    """``Ñ(T)`` (``jump``) or ``B(T)`` on each path of ``noise``."""
    if not jump:
        # a row sum over the node-major increments adds them node by node,
        # as the levels are summed, so it reads the same on any split
        return noise.d_brownian.sum(axis=1)
    # the counts as drawn, summed exactly in integers, less the
    # deterministic compensator dt n sum_q w_q
    compensator = noise.grid.dt * float(noise.n_steps * noise.levy.weights.sum())
    return noise.jump_counts.sum(axis=(0, 2)) - compensator


def _closed_forms(identities: list[Identity], noise: NoiseBundle) -> tuple[list, list, list]:
    """Each identity's ``F``, Brownian derivative ``D F`` and jump difference
    ``F^+ - F`` on the paths of ``noise``, three lists in identity order,
    from one ``X`` per base.  A gradient that is a constant is a scalar."""
    terminals = {jump: _terminal(noise, jump) for jump in {f.jump for _, f, _ in identities}}
    values, d_brownian, d_jump = [], [], []
    for _, f, _ in identities:
        x, k = terminals[f.jump], f.exponent
        values.append(x ** k)
        if f.jump:
            d_brownian.append(0.0)
            d_jump.append((x + 1.0) ** k - values[-1])
        else:
            # the base itself for a square, not a copy of its values.  A jump
            # leaves B(T) where it is: the difference is zero, or NaN where
            # F is, when the normals F reads were dropped
            d_brownian.append(1.0 if k == 1 else float(k) * (x if k == 2 else x ** (k - 1)))
            d_jump.append(values[-1] - values[-1])
    return values, d_brownian, d_jump


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
    f_vals, d_fs, _ = _closed_forms(identities, noise)
    integrals = np.zeros(lhs.shape)
    rhs[:] = 0.0
    for i, b in enumerate(_running_levels(d_b)):
        for j, (_, _, psi) in enumerate(identities):
            psi_i = _checked(psi(i, b), b.shape)
            integrals[j] += psi_i * d_b[:, i]
            rhs[j] += d_fs[j] * psi_i * w[i]
    for j, f_val in enumerate(f_vals):
        np.multiply(f_val, integrals[j], out=lhs[j])


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
    ``sum_i w_i D_i F psi_i``, with ``D_i F`` the closed form of ``F``'s
    Brownian derivative on the piece's paths.
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
    f_vals, _, d_fs = _closed_forms(identities, noise)
    lhs[:] = 0.0
    rhs[:] = 0.0
    for i, c in enumerate(_running_levels(counts)):
        for q in range(noise.levy.n_atoms):
            # the counts are compensated one step at a time, never as a
            # whole float array
            comp = np.subtract(counts[q, :, i], w_dt[q], dtype=float)
            for j, (_, _, phi) in enumerate(identities):
                phi_iq = _checked(phi(i, q, c), comp.shape)
                lhs[j] += phi_iq * comp
                rhs[j] += phi_iq * d_fs[j] * weights[q] * w_t[i]
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

