"""Every name a module of the package imports is used or re-exported, and
every private top-level name it defines is read somewhere in the package."""

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


_MEMOS = {"cache", "lru_cache"}


def _decorator(node: ast.expr) -> str:
    """The name a decorator goes by: ``lru_cache`` for both
    ``@lru_cache(maxsize=None)`` and ``@functools.lru_cache``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else node.id


def _private_definitions(tree: ast.Module):
    """Yield ``(name, statement)`` for each private top-level function,
    class or assignment (dunders aside).  A function that a decorator other
    than a memo registers is used by that registration and is left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if any(_decorator(d) not in _MEMOS for d in node.decorator_list):
                continue
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [
                n.id
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _dead_helpers(modules: dict[str, ast.Module]) -> list[str]:
    """Private top-level names that nothing in the package reads: no other
    statement of their module by name, no other module through
    ``from .module import name`` (the import lint makes it read the name),
    and no module as an attribute (``enumeration._decrement``)."""
    attributes, imported = set(), set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((node.module, a.name) for a in node.names)
    dead = []
    for module, tree in sorted(modules.items()):
        reads = [
            (stmt, {
                n.id
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            })
            for stmt in tree.body
        ]
        for name, definition in _private_definitions(tree):
            if not (
                name in attributes
                or (module, name) in imported
                or any(
                    name in names
                    for stmt, names in reads
                    if stmt is not definition
                )
            ):
                dead.append(f"{module}:{definition.lineno}: {name}")
    return dead


def test_no_dead_private_helpers():
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _dead_helpers(modules) == []


def test_the_lint_sees_a_dead_helper():
    a = (
        "from functools import lru_cache\n"
        "_REGISTRY = {}\n"
        "_UNUSED: int = 1\n"
        "__version__ = '1'\n"
        "def _register(f):\n"
        "    _REGISTRY[f.__name__] = f\n"
        "    return f\n"
        "@_register\n"
        "def _registered():\n"
        "    pass\n"
        "@lru_cache(maxsize=None)\n"
        "def _memo(n):\n"
        "    return n\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "def _by_attribute():\n"
        "    pass\n"
        "class _ByImport:\n"
        "    pass\n"
    )
    b = (
        "from . import a\n"
        "from .a import _ByImport\n"
        "def f():\n"
        "    return a._by_attribute, _ByImport\n"
    )
    modules = {"a": ast.parse(a), "b": ast.parse(b)}
    assert _dead_helpers(modules) == [
        "a:3: _UNUSED",
        "a:12: _memo",
        "a:14: _recursive",
    ]
