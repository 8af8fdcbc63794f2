"""Conditional-expectation engine.

Conditional means are realized as least-squares polynomial regressions on a
declared state (the classic regress-now Monte Carlo approach):

* ``trivial``  -- plain sample mean broadcast to every path;
* ``full``     -- regression on the state observed at the current node;
* ``delay``    -- regression on the state lagged by a fixed delay.

Every regression goes through one projector: the monomial basis is built in
node-major layout (one row of ``N`` path values per basis function), centred
row by row, scaled by the diagonal of its ``p x p`` Gram matrix, and solved
through that Gram matrix.  When the Gram matrix is too ill-conditioned for
the normal equations, the solve falls back to the pseudo-inverse of the
design, and beyond that to a small trace-normalized ridge penalty (the
intercept is never penalized, so sample means are always preserved).
Trivial information is the intercept design, whose fit is the column mean.
Targets may be one column ``(N,)`` or a block ``(N, k)``; ``k`` projections
at one node then cost one matrix product.

Both backward solvers step values back through
:meth:`CondExpEngine.backward_columns`.  It steps ``k`` value rows back one
node at a time, in place: one product of the node's design with the values
and the noise increments gives the coefficients of ``y``, ``y dB`` and
``y (count_q - w_q dt)`` and one ``p x p`` solve finishes them, so no
``(N, k)`` target block is formed; ``Z`` and ``K`` come out as one
``(1 + n_atoms, k, p)`` block on the node's own design (Gobet, Lemor &
Warin, Ann. Appl. Probab. 15, 2005).  Only ``y`` is evaluated back on the
paths.  The BSDE steps one row, a BSVIE pass one row per family; the
driver-free BSVIE family runs its own loop on ``product_coefficients``.
The path mean of a fitted square is the Gram form ``c^T (gram / N) c``,
read off the basis' triangular factor.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, Sequence

import numpy as np

from .fsvie import ForwardPaths
from .model import FiltrationMode, RegressionSpec, TimeGrid, ValidationError
from .paths import NoiseBundle

__all__ = ["RegressionError", "Design", "CondExpEngine"]

_COND_LIMIT = 1e10  # design condition number above which the ridge rescues the solve
_GRAM_COND_LIMIT = 1e12  # largest Gram condition number solved by normal equations
_RIDGE = 1e-8


class RegressionError(RuntimeError):
    """Least-squares fit failed beyond the ridge rescue."""

    def __init__(self, message: str, condition_number: float):
        self.condition_number = condition_number
        super().__init__(f"{message} (condition number {condition_number:.3e})")


def _monomial_powers(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials with total degree <= degree."""
    powers = [tuple([0] * n_vars)]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n_vars), d):
            p = [0] * n_vars
            for v in combo:
                p[v] += 1
            powers.append(tuple(p))
    return powers


def _basis(rows: Sequence[np.ndarray], powers: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Monomials of the state rows (one per variable), shape ``(p, N)``."""
    phi = np.empty((len(powers), rows[0].shape[0]))
    for j, p in enumerate(powers):
        row = phi[j]
        factors = [(rows[v], e) for v, e in enumerate(p) if e]
        if not factors:
            row.fill(1.0)
            continue
        # the first factor goes straight into the row: no fill, no temporary
        (x, e), *rest = factors
        np.power(x, e, out=row)
        for x, e in rest:
            row *= x ** e
    return phi


def _standardise(phi: np.ndarray) -> np.ndarray:
    """Centre and scale every non-intercept basis row in place.

    The rows are centred in one pass and their Gram matrix is formed once;
    each row's scale (its population standard deviation) is read off the
    Gram diagonal, and the ``p x p`` Gram is rescaled instead of recomputed
    (Bjorck, *Numerical Methods for Least Squares Problems*, SIAM 1996).
    Returns the Gram matrix of the standardized rows.
    """
    phi[1:] -= phi[1:].mean(axis=1)[:, None]
    # one dot per pair of rows: for a few long rows this beats a matrix product
    p = phi.shape[0]
    gram = np.empty((p, p))
    for a in range(p):
        for b in range(a + 1):
            gram[a, b] = gram[b, a] = phi[a] @ phi[b]
    scale = np.sqrt(np.diagonal(gram) / phi.shape[1])
    scale[scale == 0.0] = 1.0
    scale[0] = 1.0
    phi[1:] /= scale[1:, None]
    gram /= scale[:, None]
    gram /= scale[None, :]
    return gram


class Design:
    """A standardized basis ``phi`` (p, N) and the solve of its normal equations.

    A well-conditioned design keeps only ``phi`` and its Gram matrix.  Past
    :data:`_GRAM_COND_LIMIT` the normal equations would lose the digits the
    design still has, so the ``p x N`` pseudo-inverse (or, past
    :data:`_COND_LIMIT` on the design, the ridge solve) is kept as well.
    :meth:`product_coefficients` is the one solve of every regression.
    """

    __slots__ = ("phi", "gram", "solver", "condition_number", "ridged", "factor")

    def __init__(self, phi: np.ndarray, gram: np.ndarray):
        self.phi = phi
        self.gram = gram
        self.factor = None  # triangular factor of the basis, see mean_squares
        self.solver = None
        self.ridged = False
        eig = np.linalg.eigvalsh(self.gram)
        if eig[0] > 0.0 and eig[-1] <= _GRAM_COND_LIMIT * eig[0]:
            self.condition_number = float(np.sqrt(eig[-1] / eig[0]))
            return
        sv = np.linalg.svd(phi, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        self.condition_number = cond
        if cond > _COND_LIMIT:
            # trace-normalized ridge on the non-intercept block
            p = phi.shape[0]
            reg = np.eye(p) * (_RIDGE * np.trace(self.gram) / p)
            reg[0, 0] = 0.0
            try:
                self.solver = np.linalg.solve(self.gram + reg, phi)
            except np.linalg.LinAlgError as exc:
                raise RegressionError("normal equations singular beyond ridge rescue", cond) from exc
            self.ridged = True
        else:
            self.solver = np.linalg.pinv(phi.T)

    def evaluate(self, coef: np.ndarray) -> np.ndarray:
        """Fitted values ``(N,)`` or ``(N, k)`` of per-row coefficients."""
        return (coef.T @ self.phi).T

    @classmethod
    def from_rows(cls, rows: Sequence[np.ndarray], degree: int) -> "Design":
        """The standardized monomials of degree <= ``degree`` in the ``(N,)`` state rows."""
        phi = _basis(rows, _monomial_powers(len(rows), degree))
        return cls(phi, _standardise(phi))

    @classmethod
    def intercept(cls, n_paths: int) -> "Design":
        """The design of column means: the intercept row alone."""
        design = cls(np.ones((1, n_paths)), np.array([[float(n_paths)]]))
        design.factor = np.sqrt(design.gram)
        return design

    def product_coefficients(self, values: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
        """Coefficient rows of the rows of ``values`` and of their products with each factor.

        ``values`` is ``(k, N)`` and each factor ``(N,)``.  Returns
        ``(1 + len(factors), k, p)``: block 0 regresses ``values`` and block
        ``1 + j`` regresses ``values * factors[j]``.  The right-hand sides are
        one product of the basis (``phi``, or the kept solver) with the
        values, the factors multiplied into the narrower operand: the ``k``
        value rows when ``k < p``, else the ``p`` basis rows.
        """
        base = self.phi if self.solver is None else self.solver
        p, k, blocks = base.shape[0], len(values), 1 + len(factors)
        narrow = values if k < p else base
        rows = len(narrow)
        weighted = np.empty((blocks * rows, base.shape[1]))
        weighted[:rows] = narrow
        for j, f in enumerate(factors, start=1):
            np.multiply(narrow, f, out=weighted[j * rows:(j + 1) * rows])
        if k < p:
            rhs = base @ weighted.T  # (p, blocks k)
            if self.solver is None:
                rhs = np.linalg.solve(self.gram, rhs)
            return rhs.T.reshape(blocks, k, p)
        # (k, N) @ (N, .) rather than (., N) @ (N, k): the threaded BLAS
        # splits this orientation well and the other one badly
        rhs = (values @ weighted.T).reshape(k, blocks, p).transpose(1, 0, 2)
        if self.solver is not None:
            return rhs
        return np.linalg.solve(self.gram, rhs.transpose(0, 2, 1)).transpose(0, 2, 1)

    def mean_squares(self, coef: np.ndarray) -> np.ndarray:
        """Path means of the squared fitted values of coefficient rows ``(..., p)``.

        The Gram form ``c^T (gram / N) c``, read off the triangular factor
        ``R`` of the basis (``R^T R = phi phi^T``) as ``|R c|^2 / N``: the
        formed Gram matrix would square the basis' condition number, the
        factor keeps the accuracy of evaluating on the paths.  ``R`` is
        formed on the first call.
        """
        if self.factor is None:
            self.factor = np.linalg.qr(self.phi.T, mode="r")
        return np.square(coef @ self.factor.T).sum(axis=-1) / self.phi.shape[1]


class CondExpEngine:
    """Node-indexed projection engine shared by the backward solvers.

    With ``cache_designs`` it keeps, per conditioning node, the standardized
    ``(p, N)`` design and its ``p x p`` Gram matrix, so the many projections
    performed at the same node (value, martingale coefficients, jump
    coefficients, every family of a BSVIE pass, repeated fixed-point passes)
    price as matrix products.  ``project`` takes targets of shape ``(N,)`` or
    ``(N, k)`` and returns the same shape.

    ``x_paths`` is the forward state the ``x`` and ``log_x`` variables read.
    A design reads it one node row at a time (:meth:`ForwardPaths.row`), so
    the exact engine's log state is exponentiated one row per design and the
    engine never forms the whole array of ``X``.
    """

    def __init__(
        self,
        filtration: FiltrationMode,
        regression: RegressionSpec,
        noise: NoiseBundle,
        x_paths: ForwardPaths | None = None,
        cache_designs: bool = True,
    ):
        self.filtration = filtration
        self.regression = regression
        self.noise = noise
        self.x_paths = x_paths
        self.cache_designs = cache_designs  # worth it only when nodes repeat
        self.grid: TimeGrid = noise.grid
        self._designs: dict[int, Design] = {}

    # -- state assembly ------------------------------------------------------

    def _state_rows(self, node: int) -> list[np.ndarray]:
        # the noise levels and the forward state are stored node-major, so
        # every state row is a contiguous view (or the exp of one)
        rows = []
        for var in self.regression.variables:
            if var in ("x", "log_x"):
                if self.x_paths is None:
                    continue
                x = self.x_paths.row(node)
                rows.append(x if var == "x" else np.log(x))
            elif var == "brownian":
                rows.append(self.noise.brownian_levels[:, node])
            elif var == "jump_counts":
                rows.extend(self.noise.count_levels[:, :, node])
        return rows

    def conditioning_node(self, node: int) -> int:
        if self.filtration.mode == "delay":
            lag = int(round(self.filtration.delay / self.grid.dt))
            return max(node - lag, 0)
        return node

    def _design(self, cnode: int) -> Design:
        design = self._designs.get(cnode)
        if design is None:
            rows = self._state_rows(cnode)
            if not rows:
                raise ValidationError(
                    "no regression state available; declare state variables or use trivial mode"
                )
            design = Design.from_rows(rows, self.regression.degree)
            if self.cache_designs:
                self._designs[cnode] = design
        return design

    def design_at(self, node: int) -> Design:
        """The design that conditions at ``node``: the intercept design where
        the information is trivial (trivial mode, or conditioning node 0)."""
        cnode = self.conditioning_node(node)
        if self.filtration.mode == "trivial" or cnode == 0:
            return Design.intercept(self.noise.n_paths)
        return self._design(cnode)

    # -- projections ---------------------------------------------------------

    def project(self, node: int, targets: np.ndarray) -> np.ndarray:
        """Conditional mean of ``targets`` (``(N,)`` or ``(N, k)``, each column
        projected) given the node's information."""
        design = self.design_at(node)
        columns = targets.reshape(len(targets), -1)
        coef = design.product_coefficients(columns.T, [])[0]
        return design.evaluate(coef.T).reshape(targets.shape)

    def backward_columns(
        self, y: np.ndarray
    ) -> Iterator[tuple[int, Design, np.ndarray, np.ndarray]]:
        """One backward regression step per running time ``t_r``, in place on ``y``.

        ``y`` holds ``(k, N)`` value rows at ``t_n``.  At running time ``r``
        (``n-1`` down to 0) the live rows are ``y[:r + 1]``: a one-row ``y``
        (the BSDE) always steps its row, an ``(n+1, N)`` family steps the
        families ``0..r``.  One product of node ``r``'s design with the live
        rows, ``dB_r`` and the compensated counts gives the coefficients of
        ``y``, ``y dB_r`` and ``y (count_q - w_q dt)``, and ``E_r[y]`` is
        evaluated back into the live rows.

        Yields ``(r, design, live, zk)``: the live rows, to which the
        consumer adds its generator term in place before the next step, and
        the coefficient block ``zk`` ``(1 + n_atoms, rows, p)`` on the
        design, ``Z`` in slot 0 and atom ``q``'s ``K`` in slot ``1 + q``.
        """
        noise = self.noise
        dt = self.grid.dt
        w_dt = noise.levy.weights * dt
        scale = np.concatenate([[dt], w_dt])[:, None, None]
        for r in range(self.grid.n_steps - 1, -1, -1):
            design = self.design_at(r)
            live = y[:r + 1]
            # contiguous node-major rows, compensated one at a time
            factors = [noise.d_brownian[:, r]] + [
                np.subtract(noise.jump_counts[q, :, r], w, dtype=float) for q, w in enumerate(w_dt)
            ]
            coef = design.product_coefficients(live, factors)
            np.matmul(coef[0], design.phi, out=live)
            yield r, design, live, coef[1:] / scale
