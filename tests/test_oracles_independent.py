"""The oracles in tests/oracles.py must stay independent of the code they
check: the file may import nothing from aritygap."""

import ast
from pathlib import Path


def imported_modules(source: str) -> list[str]:
    """Every module named by an import statement in source, at any depth."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def test_oracles_import_nothing_from_aritygap():
    source = (Path(__file__).parent / "oracles.py").read_text(encoding="utf-8")
    names = imported_modules(source)
    assert names, "no imports parsed: is oracles.py still there?"
    assert [m for m in names if m.split(".")[0] == "aritygap" or m.startswith(".")] == []


def test_the_check_sees_nested_and_aliased_imports():
    source = "import os\ndef f():\n    from aritygap.core import pack\nimport aritygap as a\n"
    assert sorted(imported_modules(source)) == ["aritygap", "aritygap.core", "os"]
