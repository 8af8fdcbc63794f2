"""Hot numerical kernel: the triangular Volterra sweep.

The state recursion

    U[p, i] = source[i, p]
              + sum_{j < i} ( (A[i, j] - c[j]) * U[p, j] * dt
                              + B[i, j] * U[p, j] * dB[p, j]
                              + U[p, j] * sum_m P[m, i, j] * CJ[m, p, j] )

is O(n_steps^2 * n_paths) and dominates runtime for two-time kernels.  It is
solved by blocked forward substitution (level-3 BLAS): the products
``U_j * [1, dB_j, CJ_{m,j}]`` are kept node-major, each block of ``_BLOCK``
rows receives everything from earlier blocks through one matrix product with
the stacked coefficients ``[(A - c) dt, B, P_m]``, and the rows inside a
block run one at a time over the block's own earlier rows.  Only the order
of the sums differs from the direct recursion.

The state is built node-major and returned as a transposed view with the
path-major shape ``(N, n_nodes)``, no copy made.  The increments and counts
are read one node at a time, ``db[:, j]`` and ``cj[:, :, j]``: contiguous
rows for the node-major views of ``paths``, strided reads (still correct) for
path-major arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["volterra_sweep"]

_BLOCK = 32

# The benchmark's environment record reads this; there is no compiled backend.
NUMBA_ENABLED = False


def volterra_sweep(source, a_nodes, c, b_nodes, db, p_nodes, cj, dt, out=None):
    """Triangular sweep of the left-point Volterra scheme.

    Parameters
    ----------
    source : (n_nodes, N) per-node inhomogeneity (a broadcast view is fine).
    a_nodes, b_nodes : (n_nodes, n_nodes) kernel matrices at grid nodes.
    c : (n_steps,) consumption values at left nodes.
    db : (N, n_steps) Brownian increments.
    p_nodes : (m, n_nodes, n_nodes) jump kernel matrices (m may be 0).
    cj : (m, N, n_steps) compensated jump counts (count - w*dt).
    dt : step size.
    out : optional (n_nodes, N) C-ordered array the state is written into.

    Returns the (N, n_nodes) state as a view of node-major storage (``out.T``
    when ``out`` is given).
    """
    n_nodes, n_paths = source.shape
    u = np.empty((n_nodes, n_paths)) if out is None else out
    if n_nodes == 0:
        return u.T
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
            if i < n_steps:
                drivers[i, 0] = u[i]
                np.multiply(u[i], db[:, i], out=drivers[i, 1])
                np.multiply(u[i], cj[:, :, i], out=drivers[i, 2:])
    return u.T
