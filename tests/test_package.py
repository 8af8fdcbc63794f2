import ast
import dataclasses
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import volterra_control
from volterra_control.bsde import solve_bsde
from volterra_control.condexp import CondExpEngine
from volterra_control.controls import ControlFn
from volterra_control.fsvie import first_variation, simulate_fsvie
from volterra_control.malliavin import JumpIntegral, WienerIntegral
from volterra_control.model import (
    FiltrationMode,
    LevyMeasure,
    RegressionSpec,
    build_time_grid,
    validate_scenario,
)
from volterra_control.paths import _CHUNK_ROWS, NoiseBundle, generate_noise

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "volterra_control"
# ``__main__`` runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(volterra_control.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"volterra_control.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_every_module_is_named_in_the_readme_table_and_the_package_map():
    """Each module has a README table row of at most 400 characters (what it
    does and the invariant a reader needs; history belongs in CHANGES) and a
    line in the package docstring's map."""
    rows = [line for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("| `")]
    tabled = {name for row in rows for name in re.findall(r"`(\w+)`", row.split(" | ")[0])}
    mapped = set(re.findall(r"^\* ``(\w+)``", volterra_control.__doc__, flags=re.M))
    assert [m for m in MODULES if m not in tabled] == []
    assert [m for m in MODULES if m not in mapped] == []
    assert [row[:40] for row in rows if len(row) > 400] == []


def _all_node(tree: ast.Module) -> ast.Assign | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return node
    return None


def unused_imports(source: str) -> list[str]:
    """Module-level imports of ``source`` that it never reads.

    A name listed in ``__all__`` counts as read, and so does an import marked
    ``# noqa: F401`` (a deliberate re-export).
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    all_node = _all_node(tree)
    if all_node:
        read.update(ast.literal_eval(all_node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_imports_are_found():
    source = "import math\nimport numpy as np\nfrom os import path, sep\n\nnp.zeros(sep)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: path"]


def test_no_module_level_import_is_unused():
    files = sorted(PACKAGE_DIR.glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    found = {f"{p.relative_to(ROOT)}": unused_imports(p.read_text()) for p in files}
    assert not {k: v for k, v in found.items() if v}


def referenced_names(source: str) -> set[str]:
    """Names that ``source`` refers to: bare names it reads, attribute names
    and string constants (tables that name a function by string).  The
    strings of its own ``__all__`` do not count."""
    tree = ast.parse(source)
    all_node = _all_node(tree)
    skip = {id(n) for n in ast.walk(all_node)} if all_node else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def uncalled_exports(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` of each function in a module's ``__all__`` that neither
    another module nor any of the ``callers`` sources refers to.

    Classes are exempt: result types and exceptions are read through
    signatures and attributes, not named by their users.
    """
    refs = {name: referenced_names(source) for name, source in modules.items()}
    caller_refs = set().union(*map(referenced_names, callers))
    found = []
    for name, source in modules.items():
        tree = ast.parse(source)
        all_node = _all_node(tree)
        exported = ast.literal_eval(all_node.value) if all_node else []
        functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        elsewhere = caller_refs.union(*(r for other, r in refs.items() if other != name))
        found += [f"{name}.{f}" for f in exported if f in functions and f not in elsewhere]
    return sorted(found)


def test_uncalled_exports_are_found():
    modules = {
        "a": '__all__ = ["f", "g", "h", "k", "K"]\n'
             "def f(): pass\ndef g(): pass\ndef h(): pass\ndef k(): pass\n"
             "class K: pass\ng()\n",
        "b": '__all__ = ["g"]\nfrom .a import f\ng = f()\nTABLE = [("a", "h")]\n',
    }
    assert uncalled_exports(modules, ["a.k()\n"]) == ["a.g"]


# ``save_noise``/``load_noise`` let users store a noise bundle and reuse it.
# No module calls them, but the north star of ROADMAP.md names the
# truncated-file case that ``load_noise`` rejects, so both stay public.
EXPORTS_WITHOUT_CALLER = ["paths.load_noise", "paths.save_noise"]


def test_every_export_has_a_caller():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))}
    callers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert uncalled_exports(modules, callers) == EXPORTS_WITHOUT_CALLER


def unset_options(sources: list[str], callers: list[str],
                  allowed: frozenset[str] = frozenset()) -> list[str]:
    """``function.parameter`` (``Class.method.parameter`` for a method) of
    each defaulted parameter in ``sources`` that no call in ``sources`` or
    ``callers`` sets, by keyword or by position.

    Calls are matched by the called name (a bare name or an attribute), a
    class name stands for its ``__init__``, and a method's ``self`` takes no
    position.  A call that unpacks ``*args`` sets no position; ``**kwargs``
    sets no keyword.  ``allowed`` holds ``function.parameter`` names that
    need no caller.
    """
    keywords: dict[str, set[str]] = {}
    positions: dict[str, int] = {}
    for tree in map(ast.parse, sources + callers):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords if k.arg)
            if not any(isinstance(a, ast.Starred) for a in node.args):
                positions[name] = max(positions.get(name, 0), len(node.args))
    found = []
    for tree in map(ast.parse, sources):
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = methods.get(id(fn))
            name = owner if fn.name == "__init__" else fn.name
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            skip = 1 if owner and params[:1] in (["self"], ["cls"]) else 0
            defaulted = [(a, i - skip) for i, a in enumerate(params)
                         if i >= len(params) - len(fn.args.defaults)]
            defaulted += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            label = f"{owner}.{fn.name}" if owner else fn.name
            for param, pos in defaulted:
                if param in keywords.get(name, ()) or (
                        pos is not None and pos < positions.get(name, 0)):
                    continue
                if f"{label}.{param}" not in allowed:
                    found.append(f"{label}.{param}")
    return sorted(found)


def test_unset_options_are_found():
    source = ("class C:\n    def __init__(self, a, b=1, *, c=2):\n        pass\n"
              "    def m(self, d=3, e=4):\n        pass\n"
              "def f(x, y=0, z=0):\n    pass\n"
              "C(0, 1).m(5)\nf(*[1, 2, 3])\nf(1, **{'z': 0})\n")
    assert unset_options([source], ["f(0, z=1)\n"]) == ["C.__init__.c", "C.m.e", "f.y"]
    assert unset_options([source], [], frozenset({"C.m.e"})) == ["C.__init__.c", "f.y", "f.z"]


# Defaulted parameters that neither the package nor the benchmark sets, each
# with the reason it stays.  Tests are not callers: a knob that only a test
# turns is not an option of the program.
_SIZING = "test sizing: the tests run the check on a smaller, faster input"
OPTIONS_WITHOUT_CALLER = {
    "driver._lam": "binds a value of the enclosing scope into a closure; not an option",
    "check_duality.n_paths": _SIZING,
    "martingale_family_solution.n_steps": _SIZING,
    "martingale_family_solution.n_paths": _SIZING,
    "martingale_family_solution.seed": _SIZING,
    "first_variation.include_diagonal": "False is the literal pathwise derivative of the "
                                        "left-point scheme, which a finite-difference test pins",
}


def test_every_optional_parameter_is_set_by_a_caller():
    sources = [p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))]
    callers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    # exactly the listed ones: an entry that a caller now sets is stale
    assert unset_options(sources, callers) == sorted(OPTIONS_WITHOUT_CALLER)


def test_import_starts_no_thread():
    # the thread pool of ``paths`` is imported by the first call that uses
    # it, so a bare import (and the start-up time users pay) stays as it was
    code = ("import sys, threading, volterra_control; "
            "assert threading.active_count() == 1, threading.enumerate(); "
            "assert 'concurrent.futures' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


# --------------------------------------------------------------------------- #
# one node-major layout for every per-path, per-node array
# --------------------------------------------------------------------------- #

def _layout_scenario(**overrides):
    raw = {
        "grid": {"horizon": 1.0, "n_steps": 20},
        "initial": 1.0,
        "gamma": 0.0,
        "alpha_kernel": {"kind": "constant", "value": 0.05},
        "beta_kernel": {"kind": "constant", "value": 0.2},
        "levy": {"atoms": [[-0.1, 2.0]]},
        "pi_kernels": [{"kind": "constant", "value": -0.1}],
        "filtration": {"mode": "full"},
        "mc": {"n_paths": 64, "seed": 3, "n_blocks": 2},
        "regression": {"degree": 2, "state": ["x"]},
    }
    raw.update(overrides)
    return validate_scenario(raw)


def _node_major(a: np.ndarray) -> bool:
    """Stored one contiguous row of all paths per node (last axis = nodes)."""
    return np.swapaxes(a, -1, -2).flags.c_contiguous


def test_every_per_node_array_is_node_major():
    spec = _layout_scenario()
    mc = spec.mc
    noise = generate_noise(spec.grid, spec.levy, mc.n_paths, mc.seed, mc.n_blocks)
    one = ControlFn.constant(1.0, spec.grid)
    arrays = {
        "d_brownian": noise.d_brownian,
        "jump_counts": noise.jump_counts,
        "brownian_levels": noise.brownian_levels,
        "count_levels": noise.count_levels,
    }
    two_time = _layout_scenario(alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0})
    for engine, scenario in (("exact", spec), ("sum", two_time)):
        fwd = simulate_fsvie(scenario, noise, one)
        arrays[f"{engine}.state"] = fwd.state
        arrays[f"{engine}.values"] = fwd.values

    def consume(direction, i, row):
        # one contiguous row of all paths per node, as a node-major array
        # stores it
        rows.append(row.shape == (noise.n_paths,) and row.flags.c_contiguous)

    rows = []
    first_variation(two_time, noise, one, fwd, 5, consume)
    assert rows and all(rows)
    engine = CondExpEngine(spec.filtration, spec.regression, noise, x_paths=fwd)
    sol = solve_bsde(noise.brownian_levels[:, -1] ** 2, None, noise, engine)
    arrays["bsde.y"] = sol.y
    assert [name for name, a in arrays.items() if not _node_major(a)] == []
    # the BSDE holds z and k as regression coefficients on each step's design
    widths = [engine.design_at(i).phi.shape[0] for i in range(spec.grid.n_steps)]
    assert [z.shape for z in sol.z] == [(p,) for p in widths]
    assert [k.shape for k in sol.k] == [(spec.n_atoms, p) for p in widths]


def test_generate_noise_peak_is_its_output_plus_chunk_buffers():
    # two 20000-path blocks: a block-sized temporary (3.2 MB) would break
    # the bound, chunk buffers (160 kB each) do not
    grid = build_time_grid(1.0, 20)
    levy = LevyMeasure.from_atoms([[-0.1, 2.0], [0.3, 0.5]])
    generate_noise(grid, levy, 16, 1, 2)  # first-call imports and pools
    tracemalloc.start()
    try:
        noise = generate_noise(grid, levy, 40_000, 3, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = noise.d_brownian.nbytes + noise.jump_counts.nbytes
    chunk = _CHUNK_ROWS * grid.n_steps * 8
    workers = min(2, len(os.sched_getaffinity(0)))
    assert peak <= output + 3 * chunk * workers


def test_path_major_bundle_gives_the_same_values():
    """A bundle built from path-major arrays is stored node-major, so every
    reader gives the values of the generated bundle."""
    spec = _layout_scenario()
    two_time = _layout_scenario(
        alpha_kernel={"kind": "exp_decay", "amplitude": 0.05, "rate": 1.0},
        beta_kernel={"kind": "exp_decay", "amplitude": 0.2, "rate": 0.5},
    )
    mc = spec.mc
    noise = generate_noise(spec.grid, spec.levy, mc.n_paths, mc.seed, mc.n_blocks)
    built = NoiseBundle(
        grid=noise.grid, levy=noise.levy, seed=noise.seed, n_blocks=noise.n_blocks,
        d_brownian=np.ascontiguousarray(noise.d_brownian),
        jump_counts=np.ascontiguousarray(noise.jump_counts),
    )
    replaced = dataclasses.replace(noise, d_brownian=np.ascontiguousarray(noise.d_brownian))
    one = ControlFn.constant(1.0, spec.grid)
    engine_spec = (FiltrationMode(mode="full"),
                   RegressionSpec(degree=2, variables=("brownian", "jump_counts")))

    def values(bundle):
        sweep = simulate_fsvie(two_time, bundle, one).state
        log_x = simulate_fsvie(spec, bundle, one, through_node=20).state
        engine = CondExpEngine(*engine_spec, bundle)
        bsde = solve_bsde(bundle.count_levels[0, :, -1] + bundle.brownian_levels[:, -1],
                          None, bundle, engine)
        wiener, jump = WienerIntegral(1.0) ** 2, JumpIntegral(1.0) ** 2
        return [sweep, log_x, bsde.y, *bsde.z, *bsde.k, wiener.evaluate(bundle),
                wiener.d_brownian(bundle, 5), jump.evaluate_with_jump(bundle, 5, 0)]

    want = values(noise)
    for bundle in (built, replaced):
        assert _node_major(bundle.d_brownian) and _node_major(bundle.jump_counts)
        got = values(bundle)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
