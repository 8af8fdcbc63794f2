"""Hot numerical kernel: the triangular Volterra sweep.

The state recursion

    U[p, i] = source[i, p]
              + sum_{j < i} ( (A[i, j] - c[j]) * U[p, j] * dt
                              + B[i, j] * U[p, j] * dB[p, j]
                              + U[p, j] * sum_m P[m, i, j] * CJ[m, p, j] )

runs on one of two paths, picked by the form the kernels come in.  ``CJ``
are the jump drivers: ``fsvie`` passes the counts as drawn and folds the
compensator ``-w_m dt`` into the drift.

*Blocked path* (any kernels, given as node matrices), O(n_steps^2 * n_paths):
blocked forward substitution (level-3 BLAS).  The products
``U_j * [1, dB_j, CJ_{m,j}]`` are kept node-major, each block of ``_BLOCK``
rows receives everything from earlier blocks through one matrix product with
the stacked coefficients ``[(A - c) dt, B, P_m]``, and the rows inside a
block run one at a time over the block's own earlier rows.  Only the order
of the sums differs from the direct recursion.

*Lifted path* (every kernel ``a * exp(-r (t - s))``, given as its ``(a, r)``
pair, never as a matrix, the drift as a sum of them; a constant kernel and
``c`` are rate 0), O(n_steps * n_paths): on a uniform grid the triangular
sum is an exact finite-dimensional Markovian lift,

    sum_{j < i} exp(-r (t_i - t_j)) g_j = H_i,   H_0 = 0,
    H_{i+1} = exp(-r dt) (H_i + g_i),

so the sweep keeps one running ``(N,)`` row ``H`` per distinct rate, fed by
every driver whose kernel has that rate.  This is the scheme itself, not an
approximation of it: only rounding differs from the blocked path.  The decay
factor never exceeds 1, so large ``r * T`` underflows rather than overflows.

Both paths form the rows in node order.  By default they build the state
node-major and return it as a transposed view with the path-major shape
``(N, n_nodes)``, no copy made.  A caller that reads each node row once
passes ``consume`` instead: the sweep calls ``consume(i, row)`` as row ``i``
is finished.  The lift then keeps no state at all, only its per-rate rows
``H``, one running row and one temporary; the blocked path hands out the
rows of the state it forms anyway.  The increments and counts are read one
node at a time, ``db[:, j]`` and ``cj[:, :, j]``: contiguous rows for the
node-major views of ``paths``, strided reads (still correct) for path-major
arrays.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["volterra_sweep"]

_BLOCK = 32

# The benchmark's environment record reads this; there is no compiled backend.
NUMBA_ENABLED = False


def volterra_sweep(source, a_nodes, c, b_nodes, db, p_nodes, cj, dt, consume=None):
    """Triangular sweep of the left-point Volterra scheme.

    Parameters
    ----------
    source : (n_nodes, N) per-node inhomogeneity (a broadcast view is fine).
    a_nodes, b_nodes, p_nodes : the drift, beta and the m jump kernels (m
        may be 0).  Node matrices, ``(n_nodes, n_nodes)`` and ``(m, n_nodes,
        n_nodes)``, take the blocked path.  When every kernel is ``amplitude
        * exp(-rate * (t - s))`` on a uniform grid of step ``dt``, their
        ``(amplitude, rate)`` pairs take the lift: the drift as ``(k, 2)``
        (the sum of k terms), beta as ``(2,)`` and the atoms as ``(m, 2)``.
    c : (n_steps,) consumption values at left nodes.
    db : (N, n_steps) Brownian increments.
    cj : (m, N, n_steps) jump drivers, read one node's ``cj[:, :, j]`` at a
        time; ``fsvie`` passes the integer counts as drawn, with the
        compensator folded into the drift.
    dt : step size.
    consume : optional ``consume(i, row)``, called for ``i = 0 .. n_nodes - 1``
        in order with the finished ``(N,)`` row of node ``i``.  The sweep
        reads ``row`` again after the call and may reuse its memory for the
        next node: read it before returning, never write to it, and keep no
        reference to it.

    Returns the (N, n_nodes) state as a view of node-major storage, or
    ``None`` when ``consume`` is given.
    """
    n_nodes, n_paths = source.shape
    lift = np.ndim(b_nodes) == 1
    if lift and consume is not None:
        # the lift reads back only the latest row: one running buffer holds it
        u, rows = None, [np.empty(n_paths)] * n_nodes
    else:
        u = rows = np.empty((n_nodes, n_paths))
    if lift:
        rows = _lifted_rows(source, a_nodes, c, b_nodes, db, p_nodes, cj, dt, rows)
    else:
        rows = _blocked_rows(source, a_nodes, c, b_nodes, db, p_nodes, cj, dt, u)
    for i, row in enumerate(rows):
        if consume is not None:
            consume(i, row)
    return None if consume is not None else u.T


def _blocked_rows(source, a_nodes, c, b_nodes, db, p_nodes, cj, dt, u):
    """The blocked forward substitution of the module docstring, into ``u``:
    yields each row ``u[i]`` once it is final, in node order."""
    n_nodes, n_paths = source.shape
    if n_nodes == 0:
        return
    n_steps = n_nodes - 1
    m = p_nodes.shape[0]
    width = 2 + m
    # coefficient of driver r at node j in row i sits in column j * width + r
    coef = np.empty((n_nodes, n_steps, width))
    coef[:, :, 0] = (a_nodes[:, :n_steps] - c) * dt
    coef[:, :, 1] = b_nodes[:, :n_steps]
    coef[:, :, 2:] = p_nodes[:, :, :n_steps].transpose(1, 2, 0)
    coef = coef.reshape(n_nodes, n_steps * width)
    # drivers[j] = U_j * [1, dB_j, CJ_{0,j}, ..., CJ_{m-1,j}]
    drivers = np.empty((n_steps, width, n_paths))
    flat = drivers.reshape(n_steps * width, n_paths)
    for s in range(0, n_nodes, _BLOCK):
        e = min(s + _BLOCK, n_nodes)
        np.matmul(coef[s:e, : s * width], flat[: s * width], out=u[s:e])
        u[s:e] += source[s:e]
        for i in range(s, e):
            if i > s:
                u[i] += coef[i, s * width : i * width] @ flat[s * width : i * width]
            yield u[i]
            if i < n_steps:
                drivers[i, 0] = u[i]
                np.multiply(u[i], db[:, i], out=drivers[i, 1])
                np.multiply(u[i], cj[:, :, i], out=drivers[i, 2:])


def _lifted_rows(source, drift, c, beta, db, pis, cj, dt, rows):
    """The exponential-kernel recursion of the module docstring on the pairs:
    yields row ``i``, formed in ``rows[i]``, in node order; the recursion
    reads it again once the caller asks for the next."""
    n_nodes, n_paths = source.shape
    n_steps = n_nodes - 1
    # per distinct rate: the drift amplitude and the (amplitude, atom) of
    # each noise driver, atom -1 standing for the Brownian increment; rate 0
    # always exists, because it carries the consumption term
    groups = {0.0: [0.0, []]}
    for amp, rate in drift:
        groups.setdefault(float(rate), [0.0, []])[0] += amp
    for q, (amp, rate) in enumerate([beta, *pis], start=-1):
        groups.setdefault(float(rate), [0.0, []])[1].append((amp, q))
    rates = list(groups)
    decay = [math.exp(-r * dt) for r in rates]
    h = np.zeros((len(rates), n_paths))
    tmp = np.empty(n_paths)
    for i, row in enumerate(rows):
        np.add(source[i], h[0], out=row)
        for hr in h[1:]:
            row += hr
        yield row
        if i == n_steps:
            break
        for hr, r, d in zip(h, rates, decay):
            drift, noise = groups[r]
            # H <- exp(-r dt) (H + U_i g_i), one driver at a time
            coef = (drift - c[i]) * dt if r == 0.0 else drift * dt
            if coef != 0.0:
                np.multiply(row, coef, out=tmp)
                hr += tmp
            for amp, q in noise:
                np.multiply(db[:, i] if q < 0 else cj[q, :, i], amp, out=tmp)
                tmp *= row
                hr += tmp
            if d != 1.0:
                hr *= d
