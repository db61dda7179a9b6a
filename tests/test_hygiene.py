"""Source hygiene: every imported name in the package and the tests is read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports in order to re-export, so its names are never read there
SOURCES = sorted(
    p for p in (ROOT / "src" / "rhomin").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in `source` and never
    loaded anywhere in it."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in loaded]


def test_unused_imports_are_detected():
    src = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(e, x)\n"
    assert unused_imports(src) == ["os (line 1)", "c (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
