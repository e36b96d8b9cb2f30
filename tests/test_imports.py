"""Every name a module of the package imports is used or re-exported."""

import ast
import pathlib

import pytest

import foresthall

SOURCES = sorted(pathlib.Path(foresthall.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module neither reads nor lists in
    ``__all__`` (star imports and ``__future__`` aside)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                )
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used
    )


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_lint_sees_an_unused_import():
    source = (
        "import json\n"
        "from .forest import Tree, parse_forest as parse, k0_class\n"
        "__all__ = ['k0_class']\n"
        "def f():\n"
        "    return parse\n"
    )
    assert _unused_imports(ast.parse(source)) == [
        "line 1: json",
        "line 2: Tree",
    ]
