import ast
import importlib
import pathlib
import pkgutil

import pytest

import volterra_control

ROOT = pathlib.Path(__file__).resolve().parent.parent
# ``__main__`` runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(volterra_control.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"volterra_control.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_imports_are_found():
    source = "import math\nimport numpy as np\nfrom os import path, sep\n\nnp.zeros(sep)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: path"]


def test_no_module_level_import_is_unused():
    files = sorted((ROOT / "src" / "volterra_control").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    found = {f"{p.relative_to(ROOT)}": unused_imports(p.read_text()) for p in files}
    assert not {k: v for k, v in found.items() if v}
