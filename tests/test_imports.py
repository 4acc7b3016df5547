"""Every module-level import is used by the module that makes it.

A stdlib stand-in for a linter's unused-import rule (F401).  `__future__`
imports, the package `__init__` (it re-exports through `__all__`) and
import statements marked `# noqa: F401` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*ROOT.glob("src/plgg/*.py"), *ROOT.glob("tests/*.py")]
                 if p != ROOT / "src/plgg/__init__.py")


def unused_imports(source: str) -> list[str]:
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import os\nimport json.decoder\nfrom typing import Any, List\n"
              "from re import compile  # noqa: F401\n"
              "def f(x: List) -> None:\n    json.decoder\n")
    assert unused_imports(source) == ["line 2: os", "line 4: Any"]
