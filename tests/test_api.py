"""What the package exports, and the names the benchmark's tracer wraps."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import reachvol
import reachvol.analytic
import reachvol.cli

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("analytic", "cli", "extensions", "factors", "model", "sampling", "zonotope")


def _tracer_tables():
    """ENTRY_POINTS and LEAVES of benchmark/tracer.py, read without importing it."""
    tree = ast.parse((ROOT / "benchmark" / "tracer.py").read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("ENTRY_POINTS", "LEAVES"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def _traced_names():
    tables = _tracer_tables()
    return [(table, layer, name) for table in ("ENTRY_POINTS", "LEAVES")
            for layer, names in tables[table].items() for name in names]


def test_package_all_names_exist():
    missing = [name for name in reachvol.__all__ if not hasattr(reachvol, name)]
    assert not missing


@pytest.mark.parametrize("layer", SUBMODULES)
def test_submodule_all_names_exist(layer):
    mod = importlib.import_module(f"reachvol.{layer}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("layer", SUBMODULES)
def test_no_tolerance_parameters(layer):
    # the domain checks read EPS_DISTINCT, EPS_SING and EPS_COMPLEX; no caller overrides them
    mod = importlib.import_module(f"reachvol.{layer}")
    offenders = []
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # exception classes without a Python signature
            continue
        offenders += [f"{name}({p})" for p in params if p.startswith("eps")]
    assert not offenders


def test_tracer_tables_found():
    tables = _tracer_tables()
    assert set(tables) == {"ENTRY_POINTS", "LEAVES"}
    assert all(tables.values())


@pytest.mark.parametrize("table,layer,name", _traced_names())
def test_traced_name_is_callable(table, layer, name):
    mod = importlib.import_module(f"reachvol.{layer}")
    assert callable(getattr(mod, name, None)), f"{table}: {layer}.{name}"


def test_cli_shares_the_dispatcher_full_volume():
    # the benchmark self-test checks that rebinding reaches the CLI's copy
    assert reachvol.cli.full_volume is reachvol.analytic.full_volume
