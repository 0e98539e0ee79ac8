"""The library holds only what a sweep, the CLI or the benchmark runs;
reference implementations the tests compare against live in oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "percolab"


def test_every_public_definition_has_a_caller_outside_the_tests():
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
    # __init__.py only re-exports, so its imports are no use
    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    referenced = set()
    for path in callers + sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in referenced)
    assert not unused, unused


# members kept although only the tests read them, each with its reason
MEMBERS_FOR_TESTS = {
    # the tests' way to substitute an explicit coin stream for a seeded one
    "CoinStream.from_bits",
}


def test_every_public_member_is_read_outside_the_tests():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    reads = [(path, node.lineno, node.attr) for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)]
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                # a read inside the member's own def (recursion) does not count
                own = range(fn.lineno, fn.end_lineno + 1)
                if not any(name == fn.name and not (p == path and line in own)
                           for p, line, name in reads):
                    unread.append(f"{cls.name}.{fn.name}")
    assert sorted(set(unread) - MEMBERS_FOR_TESTS) == []
    assert MEMBERS_FOR_TESTS <= set(unread)  # an exemption the library now reads is stale
