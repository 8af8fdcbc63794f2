import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import volterra_control

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


def test_import_starts_no_thread():
    # the thread pool of ``paths`` is imported by the first call that uses
    # it, so a bare import (and the start-up time users pay) stays as it was
    code = ("import sys, threading, volterra_control; "
            "assert threading.active_count() == 1, threading.enumerate(); "
            "assert 'concurrent.futures' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
