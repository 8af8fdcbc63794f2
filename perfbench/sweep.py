"""Triangular Volterra sweep micro-benchmark.

The problem is the one in ``benchmarks/bench_kernels.py``: random lower
triangular two-time kernels, two jump atoms, unit source.  Sizes are the
baseline ones (100 and 400 steps at 20k paths).  ``direct_recursion`` is the
per-path, per-term loop of the ``_kernels`` docstring, used as the reference
on a small case.
"""

from __future__ import annotations

import time

import numpy as np

from spans import sweep_flop

SIZES = ((100, 20_000), (400, 20_000))
N_ATOMS = 2


def make_problem(n_steps: int, n_paths: int, seed: int, n_atoms: int = N_ATOMS):
    """Arguments of ``volterra_sweep`` for one random problem."""
    rng = np.random.default_rng(seed)
    n_nodes = n_steps + 1
    source = np.ones((n_nodes, n_paths))
    a = np.tril(rng.normal(0.05, 0.01, size=(n_nodes, n_nodes)))
    b = np.tril(rng.normal(0.2, 0.02, size=(n_nodes, n_nodes)))
    c = np.ones(n_steps)
    db = rng.normal(scale=0.1, size=(n_paths, n_steps))
    p = np.tril(rng.normal(0.0, 0.05, size=(n_atoms, n_nodes, n_nodes)))
    cj = rng.normal(scale=0.02, size=(n_atoms, n_paths, n_steps))
    return source, a, c, b, db, p, cj, 1.0 / n_steps


def direct_recursion(source, a, c, b, db, p, cj, dt):
    """Plain loop over paths, rows and earlier nodes."""
    n_nodes, n_paths = source.shape
    u = np.empty((n_paths, n_nodes))
    for q in range(n_paths):
        for i in range(n_nodes):
            acc = source[i, q]
            for j in range(i):
                term = (a[i, j] - c[j]) * dt + b[i, j] * db[q, j]
                for m in range(p.shape[0]):
                    term += p[m, i, j] * cj[m, q, j]
                acc += u[q, j] * term
            u[q, i] = acc
    return u


def reference_error(sweep, seed: int) -> float:
    """Largest relative gap between ``sweep`` and the direct recursion."""
    args = make_problem(12, 40, seed)
    got = sweep(*args)
    want = direct_recursion(*args)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def compulsory_bytes(n_steps: int, n_paths: int, n_atoms: int = N_ATOMS) -> float:
    """Bytes read (source, increments, counts) and written (state), float64."""
    n_nodes = n_steps + 1
    return 8.0 * n_paths * (n_nodes + n_steps * (1 + n_atoms) + n_nodes)


def measure(sweep, seed: int, repeats: int = 3) -> dict[str, float]:
    """Median wall time, flops and bytes of ``sweep`` at each baseline size."""
    out = {}
    for n_steps, n_paths in SIZES:
        args = make_problem(n_steps, n_paths, seed)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            sweep(*args)
            times.append(time.perf_counter() - t0)
        key = f"kernels.sweep_{n_steps}x{n_paths // 1000}k"
        out[f"{key}_s"] = float(np.median(times))
        out[f"{key}_gflop"] = sweep_flop(n_steps + 1, n_paths, N_ATOMS) / 1e9
        out[f"{key}_gb"] = compulsory_bytes(n_steps, n_paths) / 1e9
    return out
