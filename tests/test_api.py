from __future__ import annotations

import importlib
import inspect
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
    """The benchmark's tracer wraps stepscan functions by name; each must exist.

    Its counters read some arguments by position or by name, so those
    parameters must keep their names and places.
    """
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    layers = importlib.import_module("layers")
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in layers.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
    leading = {
        "select_breaks_bic": ["tri", "max_m"],
        "wbs_segment": ["s", "cfg"],
        "permutation_test": ["values", "b", "cfg"],
        "main": ["argv"],
    }
    checked, moved = set(), {}
    for module, attr, *_ in layers.TARGETS:
        if attr in leading:
            checked.add(attr)
            params = list(inspect.signature(getattr(module, attr)).parameters)
            if params[: len(leading[attr])] != leading[attr]:
                moved[f"{module.__name__}.{attr}"] = params
    assert checked == set(leading)
    assert moved == {}
