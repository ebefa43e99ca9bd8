"""Every imported name in the project's Python files is used.

A dependency-free stand-in for a linter's unused-import check, built on
``ast``: a name a module imports must be read somewhere in that module.
Package ``__init__.py`` files (re-exports) and import lines marked
``# noqa`` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src", "scripts", "tests")
               for path in (ROOT / folder).rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, with their line numbers."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in read]


def test_scan_finds_unused_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "import x.y\nimport sys  # noqa: F401\nprint(np.pi, e, x.y)\n")
    assert unused_imports(source) == ["1: os", "3: c"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
