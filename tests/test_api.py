from __future__ import annotations

import importlib
import pkgutil

import pytest
from conftest import REPO

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


def test_benchmark_trace_targets_resolve(monkeypatch):
    """The benchmark's tracer wraps stepscan functions by name; each must exist."""
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    layers = importlib.import_module("layers")
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in layers.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
