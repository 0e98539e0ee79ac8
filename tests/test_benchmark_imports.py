"""The benchmark under perfbench/ changes only with the benchmark itself,
so every name it imports from percolab must keep resolving."""

import ast
import importlib
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
