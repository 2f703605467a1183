from __future__ import annotations

import importlib
import pkgutil

import pytest

import stepscan

MODULES = [stepscan] + [importlib.import_module(f"stepscan.{info.name}")
                        for info in pkgutil.iter_modules(stepscan.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)
