"""Consumption-rate controls on grid nodes.

A control is evaluated only at the left nodes ``t_0 .. t_{n-1}``; the final
node ``t_n = T`` is never sampled (the optimal rate blows up there).  Each
kind also knows its per-step integral ``int_{t_k}^{t_{k+1}} c(r) dr``:

* ``table``       -- user-supplied node values, left-point integral;
* ``theta_cstar`` -- ``theta * lambda / P`` built from discrete discount
  arrays; the step integral ``-theta * log(1 - c_k dt)`` telescopes the
  remaining-value ratio exactly;
* ``bump``        -- a base control plus ``height`` on ``[t_a, t_a + eps)``.

The step integrals feed the exact multiplicative forward stepping; the
plain node values feed drivers, utilities and Hamiltonians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TimeGrid, ValidationError

__all__ = ["ControlFn", "discount_curve", "fine_discount_curve", "remaining_value_curve"]


def _discount_sign(convention: str) -> float:
    """The sign of the discount rate in the exponent: ``discounting`` uses
    the negative one, ``paper_ode`` the positive one."""
    return -1.0 if convention == "discounting" else 1.0


def discount_curve(gamma: np.ndarray, grid: TimeGrid, convention: str) -> np.ndarray:
    """Multiplier ``lambda(t_i) = exp(-+ sum_{j<i} gamma_j dt)`` on all nodes,
    signed by ``convention``; ``lambda(0) = 1``."""
    cum = np.zeros(grid.n_steps + 1)
    np.cumsum(gamma[:-1] * grid.dt, out=cum[1:])
    return np.exp(_discount_sign(convention) * cum)


def remaining_value_curve(gamma: np.ndarray, grid: TimeGrid, convention: str) -> np.ndarray:
    """``P(t_i) = sum_{j >= i} lambda(t_j) dt`` (left-point tail sum), ``P(T) = 0``."""
    lam = discount_curve(gamma, grid, convention)
    out = np.zeros(grid.n_steps + 1)
    out[:-1] = np.cumsum((lam[:-1] * grid.dt)[::-1])[::-1]
    return out


def fine_discount_curve(gamma: np.ndarray, s: np.ndarray, convention: str) -> np.ndarray:
    """``lambda(s) = exp(-+ int_0^s gamma)`` on a uniform fine grid ``s`` with ``s[0] = 0``.

    ``gamma`` holds node values equally spaced on ``[0, s[-1]]``; they are
    interpolated linearly and integrated by the trapezoid rule.
    """
    g = np.interp(s, np.linspace(0.0, s[-1], gamma.shape[0]), gamma)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * (s[1] - s[0]))))
    return np.exp(_discount_sign(convention) * cum)


@dataclass(frozen=True, eq=False)
class ControlFn:
    kind: str
    table_values: np.ndarray | None = None
    theta: float = 1.0
    gamma: np.ndarray | None = None
    convention: str = "discounting"
    base: "ControlFn | None" = None
    bump_start: float = 0.0
    bump_len: float = 0.0
    bump_height: float = 0.0

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float, grid: TimeGrid) -> "ControlFn":
        return ControlFn.table(np.full(grid.n_steps, float(value)))

    @staticmethod
    def table(values) -> "ControlFn":
        values = np.asarray(values, dtype=float)
        return ControlFn(kind="table", table_values=values)

    @staticmethod
    def theta_cstar(theta: float, gamma: np.ndarray, convention: str) -> "ControlFn":
        if theta <= 0.0:
            raise ValidationError("theta must be > 0")
        return ControlFn(kind="theta_cstar", theta=float(theta),
                         gamma=np.asarray(gamma, float), convention=convention)

    @staticmethod
    def bump(base: "ControlFn", start: float, length: float, height: float) -> "ControlFn":
        return ControlFn(kind="bump", base=base, bump_start=float(start),
                         bump_len=float(length), bump_height=float(height))

    # -- evaluation ----------------------------------------------------------

    def _cstar_nodes(self, grid: TimeGrid) -> np.ndarray:
        # a discount that overflows, or a remaining value of 0, leaves no c*
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lam = discount_curve(self.gamma, grid, self.convention)
            big_p = remaining_value_curve(self.gamma, grid, self.convention)
            c = lam[:-1] / big_p[:-1]
        if not np.isfinite(c).all():
            raise ValidationError("c* is not finite on this grid: gamma or grid.horizon is out of range")
        return c

    def values(self, grid: TimeGrid) -> np.ndarray:
        """Node values at ``t_0 .. t_{n-1}``."""
        n = grid.n_steps
        if self.kind == "table":
            if self.table_values.shape[0] not in (n, n + 1):
                raise ValidationError(
                    f"control table has {self.table_values.shape[0]} values, grid needs {n}"
                )
            return self.table_values[:n].copy()
        if self.kind == "theta_cstar":
            return self.theta * self._cstar_nodes(grid)
        if self.kind == "bump":
            vals = self.base.values(grid)
            mask = self._bump_mask(grid)
            return vals + self.bump_height * mask
        raise ValidationError(f"unknown control kind {self.kind!r}")

    def _bump_mask(self, grid: TimeGrid) -> np.ndarray:
        t = grid.nodes[:-1]
        return ((t >= self.bump_start - 1e-12)
                & (t < self.bump_start + self.bump_len - 1e-12)).astype(float)

    def _bump_overlap(self, grid: TimeGrid) -> np.ndarray:
        """Length of ``[t_k, t_{k+1}) ∩ [t_a, t_a + eps)`` per step."""
        lo = grid.nodes[:-1]
        hi = grid.nodes[1:]
        a, b = self.bump_start, self.bump_start + self.bump_len
        return np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)

    def step_integrals(self, grid: TimeGrid) -> np.ndarray:
        """Exact ``int_{t_k}^{t_{k+1}} c`` per step (``+inf`` where divergent)."""
        if self.kind == "table":
            return self.values(grid) * grid.dt
        if self.kind == "theta_cstar":
            cstar = self._cstar_nodes(grid)
            frac = cstar * grid.dt
            with np.errstate(divide="ignore"):
                base = -np.log1p(-np.minimum(frac, 1.0))
            return self.theta * base
        if self.kind == "bump":
            return self.base.step_integrals(grid) + self.bump_height * self._bump_overlap(grid)
        raise ValidationError(f"unknown control kind {self.kind!r}")

    def oracle_profile(self, s: np.ndarray, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
        """``(c(s), int_0^s c)`` on a fine grid for high-resolution quadrature.

        ``s`` must be uniform on ``[0, grid.horizon]``; the last entry of the
        cumulative integral may be ``+inf`` for rates diverging at the
        horizon.
        """
        ds = s[1] - s[0]
        if self.kind == "table":
            # piecewise-constant (left) extension of the node values on the
            # grid's n steps (a table of n + 1 values has an unused terminal one)
            vals = self.values(grid)
            idx = np.minimum((s / grid.dt + 1e-9).astype(int), grid.n_steps - 1)
            c = vals[idx]
            cum = np.concatenate(([0.0], np.cumsum(c[:-1] * ds)))
            return c, cum
        if self.kind == "theta_cstar":
            lam = fine_discount_curve(self.gamma, s, self.convention)
            tail = np.concatenate((np.cumsum((0.5 * (lam[1:] + lam[:-1]) * ds)[::-1])[::-1], [0.0]))
            with np.errstate(divide="ignore"):
                cstar = np.where(tail > 0.0, lam / np.where(tail > 0, tail, 1.0), np.inf)
                cum_cstar = -np.log(tail / tail[0])
            return self.theta * cstar, self.theta * cum_cstar
        if self.kind == "bump":
            c0, cum0 = self.base.oracle_profile(s, grid)
            a, b = self.bump_start, self.bump_start + self.bump_len
            ind = ((s >= a - 1e-12) & (s < b - 1e-12)).astype(float)
            overlap = np.clip(np.minimum(s, b) - a, 0.0, None)
            return c0 + self.bump_height * ind, cum0 + self.bump_height * overlap
        raise ValidationError(f"unknown control kind {self.kind!r}")
