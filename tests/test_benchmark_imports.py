"""The benchmark under perfbench/ changes only with the benchmark itself,
so every name it imports from percolab must keep resolving."""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _percolab_imports():
    """(file, module, name) for every ``from percolab... import name``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "percolab":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_perfbench_imports_resolve():
    found = list(_percolab_imports())
    assert {"percolab", "percolab.harness", "percolab.rng"} <= {m for _, m, _ in found}
    missing = [f"{f}: from {m} import {name}" for f, m, name in found
               if not hasattr(importlib.import_module(m), name)]
    assert not missing, missing


def _percolab_calls():
    """(file:line, callable, positional count, keyword names) for every call
    in perfbench of a name imported from percolab, or of an attribute of one
    (``GenSpec(...)``, ``PercolationSample.from_membership(...)``); calls
    that unpack ``*`` or ``**`` are skipped."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "percolab":
                for alias in node.names:
                    imported[alias.asname or alias.name] = getattr(
                        importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imported:
                obj = imported[func.id]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in imported):
                obj = getattr(imported[func.value.id], func.attr)
            else:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                continue
            yield (f"{path.name}:{node.lineno}", obj, len(node.args),
                   [k.arg for k in node.keywords])


def test_perfbench_calls_bind():
    # a removed keyword or a shorter parameter list breaks the benchmark at run
    # time, after the names above still resolve
    calls = list(_percolab_calls())
    assert len(calls) >= 30
    unbound = []
    for where, obj, nargs, keywords in calls:
        try:
            inspect.signature(obj).bind(*[None] * nargs, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
    assert not unbound, unbound
