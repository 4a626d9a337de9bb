"""Every name a ``repro`` module exports must resolve.

A deleted function whose name stays in an ``__all__`` (or in
``repro.evaluation``'s lazy table) imports fine and fails only when a
caller asks for it; these tests ask for every one.
"""

import importlib
import pkgutil

import pytest

import repro
import repro.evaluation

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_evaluation_lazy_table_resolves():
    for attr, module_name in repro.evaluation._LAZY.items():
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), f"{module_name} has no {attr}"
        assert attr in repro.evaluation.__all__, attr
