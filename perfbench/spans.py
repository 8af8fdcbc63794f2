"""Spans recorded around calls into the package's public functions.

The traced run wraps selected functions at every module attribute that holds
them (``fsvie.volterra_sweep`` is the same object as
``_kernels.volterra_sweep``, and callers look it up in ``fsvie``), so the
program itself is not modified.  Each call becomes one span ``[name, parent,
start, end, raised]``; spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "volterra_control"

# (module, attribute, span name)
FUNCTIONS = (
    ("paths", "generate_noise", "paths.generate_noise"),
    ("_kernels", "volterra_sweep", "kernels.volterra_sweep"),
    ("fsvie", "simulate_fsvie", "fsvie.simulate_fsvie"),
    ("fsvie", "first_variation", "fsvie.first_variation"),
    ("bsde", "solve_bsde", "bsde.solve_bsde"),
    ("bsvie", "solve_bsvie", "bsvie.solve_bsvie"),
    ("bsvie", "solve_family_step", "bsvie.solve_family_step"),
    ("malliavin", "verify_duality_brownian", "malliavin.verify_duality_brownian"),
    ("malliavin", "verify_duality_jump", "malliavin.verify_duality_jump"),
    ("control", "performance", "control.performance"),
    ("control", "gateaux_derivative", "control.gateaux_derivative"),
    ("control", "log_utility_oracle", "control.log_utility_oracle"),
    ("control", "hamiltonian_h1", "control.hamiltonian_h1"),
    ("cli", "run", "cli.run"),
)

# (module, class, method, span name)
METHODS = (("condexp", "CondExpEngine", "project", "condexp.project"),)

# acceptance criteria: reported as inclusive wall time, not per-call counts
CRITERIA = (
    ("check_closed_form_optimum", "acceptance.C1"),
    ("check_value_oracle", "acceptance.C2"),
    ("check_optimality_ranking", "acceptance.C3"),
    ("check_necessary_mp", "acceptance.C4"),
    ("check_bsvie_solver", "acceptance.C5"),
    ("martingale_family_solution", "acceptance.C5_family"),
    ("check_contraction", "acceptance.C6"),
    ("check_duality", "acceptance.C7"),
    ("check_forward_solver", "acceptance.C8"),
    ("check_adjoint_reduction", "acceptance.C9"),
    ("check_z_time_derivative", "acceptance.C10"),
)

COUNTED = tuple(name for *_, name in FUNCTIONS + METHODS)


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per-name ``calls``, ``self_s``, ``total_s`` and ``errors`` of a span list.

    ``spans`` holds ``(name, parent, start, end, raised)`` records, where
    ``parent`` is the index of the enclosing span or -1 for a root.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0}
    )
    for idx, (name, _, start, end, raised) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child[idx]
        row["total_s"] += end - start
        row["errors"] += int(raised)
    return dict(out)


def root_time(spans) -> float:
    """Summed duration of the spans that no other span encloses."""
    return sum(end - start for _, parent, start, end, _ in spans if parent < 0)


def sweep_flop(n_nodes: int, n_paths: int, n_atoms: int) -> float:
    """Multiply-adds of the direct triangular recursion, counted as 2 flops.

    Row ``i`` sums ``i`` earlier nodes for the drift, the diffusion and each
    jump atom on every path.
    """
    return 2.0 * (2 + n_atoms) * n_paths * n_nodes * (n_nodes - 1) / 2


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Recorder:
    """Collects spans and the per-layer work counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._designs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._cache_bytes = 0.0

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, False]
        self.spans.append(span)
        self._stack.append(idx)
        span[2] = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[4] = True
            raise
        finally:
            span[3] = self.clock()
            self._stack.pop()
        probe = _PROBES.get(name)
        if probe is not None:
            probe(self, args, kwargs, result)
        return result

    # -- work counters, computed from argument and result shapes -------------

    def _noise(self, args, kwargs, result):
        mb = (result.d_brownian.nbytes + result.jump_counts.nbytes) / 1e6
        self.counters["paths.generate_noise.mb"] += mb

    def _sweep(self, args, kwargs, result):
        source = _arg(args, kwargs, 0, "source")
        p_nodes = _arg(args, kwargs, 5, "p_nodes")
        flop = sweep_flop(source.shape[0], source.shape[1], p_nodes.shape[0])
        self.counters["kernels.volterra_sweep.gflop"] += flop / 1e9

    def _project(self, args, kwargs, result):
        engine = args[0]
        targets = _arg(args, kwargs, 2, "targets")
        self.counters["condexp.project.cols"] += targets.shape[1] if targets.ndim == 2 else 1
        if engine.filtration.mode == "trivial":
            return
        cnode = engine.conditioning_node(_arg(args, kwargs, 1, "node"))
        if engine.filtration.mode == "delay" and cnode == 0:
            return
        nodes = self._designs.setdefault(engine, set())
        if cnode in nodes:
            return
        nodes.add(cnode)
        self.counters["condexp.project.designs"] += 1
        if engine.cache_designs:
            # standardized N x p design plus its p x N pseudo-inverse per node
            size = len(nodes) * engine.noise.n_paths * _n_basis(engine) * 16
            self._cache_bytes = max(self._cache_bytes, size)
            self.counters["condexp.project.cache_mb"] = self._cache_bytes / 1e6

    def _bsde(self, args, kwargs, result):
        noise = _arg(args, kwargs, 2, "noise")
        self.counters["bsde.solve_bsde.steps"] += noise.n_steps

    def _bsvie(self, args, kwargs, result):
        self.counters["bsvie.solve_bsvie.passes"] += len(result.iteration_log)

    def _family(self, args, kwargs, result):
        n = _arg(args, kwargs, 3, "noise").n_steps
        self.counters["bsvie.solve_family_step.pairs"] += n * (n + 1) // 2


def _n_basis(engine) -> int:
    """Monomials of total degree <= d in the engine's regression state."""
    n_vars = 0
    for var in engine.regression.variables:
        if var in ("x", "log_x"):
            n_vars += engine.x_paths is not None
        elif var == "brownian":
            n_vars += 1
        elif var == "jump_counts":
            n_vars += engine.noise.levy.n_atoms
    return math.comb(n_vars + engine.regression.degree, n_vars)


_PROBES = {
    "paths.generate_noise": Recorder._noise,
    "kernels.volterra_sweep": Recorder._sweep,
    "condexp.project": Recorder._project,
    "bsde.solve_bsde": Recorder._bsde,
    "bsvie.solve_bsvie": Recorder._bsvie,
    "bsvie.solve_family_step": Recorder._family,
}


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return wrapper


@contextmanager
def traced(recorder: Recorder):
    """Route calls to the listed functions through ``recorder`` while inside.

    Every loaded package module attribute that is the original function is
    replaced, and restored on exit.
    """
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in (
        "paths", "_kernels", "fsvie", "condexp", "bsde", "bsvie", "malliavin",
        "control", "acceptance", "cli",
    )}
    loaded = [mod for key, mod in sys.modules.items()
              if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    targets = [(modules[m], attr, name) for m, attr, name in FUNCTIONS]
    targets += [(modules["acceptance"], attr, name) for attr, name in CRITERIA]
    undo = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            wrapper = _wrap(recorder, name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        for m, cls_name, attr, name in METHODS:
            cls = getattr(modules[m], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, _wrap(recorder, name, original))
            undo.append((cls, attr, original))
        yield recorder
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
