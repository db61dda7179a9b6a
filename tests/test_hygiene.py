"""Source hygiene: every imported name in the package and the tests is read,
and so is every module-level private name of the package; the exact layer
imports no numpy."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rhomin").glob("*.py"))
# __init__.py imports in order to re-export, so its names are never read there
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


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


def private_definitions(source: str) -> list[str]:
    """Private names (one leading underscore) that `source` binds at module
    level by def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source: str) -> set[str]:
    """Names loaded in `source`, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_private_definitions_are_detected():
    src = "_A = 1\n_b: int = 2\n__all__ = []\ndef _f(): return _A\nclass _C: pass\nx = m._g\n"
    assert private_definitions(src) == ["_A", "_b", "_f", "_C"]
    assert {"_A", "_g"} <= read_names(src) and "_f" not in read_names(src)


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in PACKAGE}
    read = set().union(*map(read_names, sources.values()))
    unread = [f"{name}: {n}" for name, src in sources.items()
              for n in private_definitions(src) if n not in read]
    assert unread == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that `source` imports absolutely."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_exact_layer_imports_no_numpy():
    assert imported_modules("import numpy.linalg\nfrom .x import y\n") == {"numpy"}
    source = (ROOT / "src" / "rhomin" / "exactpoly.py").read_text()
    assert "numpy" not in imported_modules(source)
