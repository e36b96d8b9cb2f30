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
    interpreter's own ``__builtins__`` and ``__all__`` aside)."""
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


def test_clear_caches_empties_the_intern_tables():
    ab = ColorTable(("a", "b"))
    before = parse_forest("a[b,a[b]]+b+a[b,a[b]]", ab)
    assert forest_module._TREES and forest_module._FORESTS
    table = {before: "found"}
    foresthall.clear_caches()
    assert forest_module._TREES == {}
    assert forest_module._FORESTS == {}
    after = parse_forest("b+a[a[b],b]+a[b,a[b]]", ab)
    assert after is not before
    assert after == before and before == after
    assert hash(after) == hash(before)
    assert table[after] == "found"
    assert {after: "found"}[before] == "found"
    assert after.trees[1] == before.trees[1]
    # the tables find the new objects from the old ones
    assert Forest(before.trees) is after
    assert after.aut == before.aut == 2


def test_clear_caches_empties_every_container_that_grows():
    foresthall.clear_caches()
    containers = _containers()
    sizes = {name: len(value) for name, value in containers.items()}
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "all", "--colors", "a,b", "--max-vertices", "4"])
    assert code == 0
    grown = {
        name for name, value in containers.items() if len(value) > sizes[name]
    }
    assert {"forest._TREES", "forest._FORESTS", "forest._WORDS"} <= grown
    foresthall.clear_caches()
    assert {name: len(containers[name]) for name in grown} == dict.fromkeys(
        grown, 0
    )
