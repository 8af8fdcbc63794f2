import importlib
import pkgutil

import pytest

import volterra_control

# ``__main__`` runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(volterra_control.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"volterra_control.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
