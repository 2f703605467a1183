from __future__ import annotations

import ast
import collections
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
import warnings

import pytest
from conftest import REPO

import stepscan

MODULES = [stepscan] + [importlib.import_module(f"stepscan.{info.name}")
                        for info in pkgutil.iter_modules(stepscan.__path__)]
# The modules whose exports the package re-exports.
LIBRARY = [m for m in MODULES[1:] if hasattr(m, "__all__")]
WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_no_name_is_exported_by_two_modules():
    # the package's star imports would let the later module shadow it
    owners = collections.Counter(name for m in LIBRARY for name in m.__all__)
    assert [name for name, count in owners.items() if count > 1] == []


def test_package_exports_each_module_export_once():
    assert len(stepscan.__all__) == len(set(stepscan.__all__))
    assert set(stepscan.__all__) == {name for m in LIBRARY for name in m.__all__} | {"__version__"}


def test_version_has_one_source(monkeypatch):
    """pyproject.toml reads the package version from stepscan.__version__."""
    config = pytest.importorskip("setuptools.config.pyprojecttoml")
    monkeypatch.chdir(REPO)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools marks [tool.setuptools] as beta
        project = config.read_configuration(REPO / "pyproject.toml")["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == stepscan.__version__


def test_library_imports_only_the_standard_library_and_numpy():
    """No runtime dependency beyond numpy: every absolute import is stdlib or numpy."""
    foreign = []
    for path in sorted((REPO / "src" / "stepscan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert foreign == []


@pytest.mark.parametrize("path", [p for p in sorted((REPO / "src" / "stepscan").glob("*.py"))
                                  if p.name != "__init__.py"],  # it re-exports by star import
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    """No import is left behind by a cut: each imported name is used or exported."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = getattr(importlib.import_module(f"stepscan.{path.stem}"), "__all__", [])
    assert sorted(imported - used - set(exported)) == []


def test_package_reads_every_private_name_it_defines():
    """No helper or constant is left behind by a cut: each private module-level name is read."""
    defined, read = set(), set()
    for path in sorted((REPO / "src" / "stepscan").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert {"_EPS", "_best_per_interval"} <= private  # the walk sees constants and functions
    assert sorted(private - read) == []


def test_import_leaves_numpy_random_unloaded():
    """Importing the CLI builds no generator: numpy.random loads on first draw only."""
    code = "import sys, stepscan.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=str(REPO), check=True)
    assert proc.stdout.strip() == "False"


def test_wbs_runs_leave_numpy_ma_unloaded():
    """WBS's noise scale takes no np.median, whose first call imports numpy.ma."""
    code = ("import sys, stepscan.cli as c\n"
            "codes = [c.main(['segment', '--method', 'wbs', 'fixtures/nile.csv']),\n"
            "         c.main(['compare', '--methods', 'dp,wbs,edivisive', 'fixtures/nile.csv'])]\n"
            "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=str(REPO), check=True)
    assert proc.stderr.splitlines()[-1] == "[0, 0] False"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_outputs_match_reference_digests(monkeypatch, tmp_path, workload):
    """One seed-0 pass of a benchmark workload: every check passes, every digest is pinned."""
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.chdir(REPO)  # the CLI jobs name their fixtures relative to it
    workloads = importlib.import_module("workloads")
    reference = json.loads((REPO / "bench" / "reference.json").read_text())
    assert reference["seed"] == 0
    failures, digests = {}, {}
    for job in workloads.build(workload, 0, str(tmp_path)):
        reason, digests[job.id] = job.check(job.run())
        if reason is not None:
            failures[job.id] = reason
    assert failures == {}
    assert digests == reference["workloads"][workload]


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
