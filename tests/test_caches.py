"""Releasing the package's memos."""

import contextlib
import importlib
import io
import pkgutil

import foresthall
from foresthall import forest as forest_module
from foresthall.cli import main
from foresthall.forest import ColorTable, Forest, parse_forest
from foresthall.linear import LinComb
from foresthall.nsym import parse_word, rho


def _module_values():
    """``(module.name, value)`` for every top-level value of a module."""
    for info in pkgutil.iter_modules(foresthall.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"foresthall.{info.name}")
        for name, value in vars(module).items():
            yield f"{info.name}.{name}", value


def _memos_in_modules():
    """Every memoized function defined at the top level of a module."""
    return {v for _, v in _module_values() if hasattr(v, "cache_clear")}


def _containers():
    """Every top-level dict, list or set of a module, by name (the
    interpreter's own ``__builtins__`` and ``__all__`` aside).  The weak
    tables of trees and forests are not among them."""
    return {
        name: value
        for name, value in _module_values()
        if isinstance(value, (dict, list, set)) and ".__" not in name
    }


def test_clear_caches_empties_every_memo():
    rho(LinComb.basis(parse_word("(1,1)|(1,0)", 2)))
    memos = _memos_in_modules()
    assert any(memo.cache_info().currsize for memo in memos)
    foresthall.clear_caches()
    assert {memo.__qualname__: memo.cache_info().currsize for memo in memos} == {
        memo.__qualname__: 0 for memo in memos
    }


def test_rho_is_unchanged_by_clearing():
    word = LinComb.basis(parse_word("(1,1)|(2,0)|(0,1)", 2))
    before = rho(word)
    foresthall.clear_caches()
    after = rho(word)
    assert len(after) > 1
    assert after == before


def test_a_held_forest_stays_the_object_of_its_class():
    ab = ColorTable(("a", "b"))
    before = parse_forest("a[b,a[b]]+b+a[b,a[b]]", ab)
    table = {before: "found"}
    foresthall.clear_caches()
    after = parse_forest("b+a[a[b],b]+a[b,a[b]]", ab)
    assert after is before
    assert table[after] == "found"
    assert Forest(before.trees) is after
    assert after.aut == 2


def _interned_keys():
    """The ``key`` of every tree and of every forest in the intern tables:
    nested tuples of ints, which hold no tree or forest alive."""
    return (
        {tree.key for tree in forest_module._TREES.values()},
        {forest.key for forest in forest_module._FORESTS.values()},
    )


def _tree_keys(forest):
    """The keys of every tree in ``forest``, subtrees included."""
    keys, stack = set(), list(forest.trees)
    while stack:
        tree = stack.pop()
        keys.add(tree.key)
        stack.extend(tree.children)
    return keys


def test_clear_caches_keeps_only_what_the_caller_holds():
    foresthall.clear_caches()
    trees, forests = _interned_keys()
    held = parse_forest("a[b,a[b]]+b+b[a]", ColorTable(("a", "b")))
    rho(LinComb.basis(parse_word("(2,1)|(1,2)", 2)))
    grown_trees, grown_forests = _interned_keys()
    assert len(grown_trees - trees) > 4 and len(grown_forests - forests) > 1
    foresthall.clear_caches()
    left_trees, left_forests = _interned_keys()
    assert left_trees - trees == _tree_keys(held) - trees
    assert left_forests - forests == {held.key} - forests
    assert forest_module._FORESTS[held.trees] is held


def test_clear_caches_empties_every_container_that_grows():
    foresthall.clear_caches()
    containers = _containers()
    sizes = {name: len(value) for name, value in containers.items()}
    trees, forests = _interned_keys()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "all", "--colors", "a,b", "--max-vertices", "4"])
    assert code == 0
    grown = {
        name for name, value in containers.items() if len(value) > sizes[name]
    }
    assert "forest._WORDS" in grown
    now_trees, now_forests = _interned_keys()
    added_trees, added_forests = now_trees - trees, now_forests - forests
    assert added_trees and added_forests
    foresthall.clear_caches()
    assert {name: len(containers[name]) for name in grown} == dict.fromkeys(
        grown, 0
    )
    # the weak tables of trees and forests keep nothing the run built
    left_trees, left_forests = _interned_keys()
    assert left_trees & added_trees == set()
    assert left_forests & added_forests == set()
