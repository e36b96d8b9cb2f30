"""Releasing the package's memos."""

import importlib
import pkgutil

import foresthall
from foresthall.linear import LinComb
from foresthall.nsym import parse_word, rho


def _memos_in_modules():
    """Every memoized function defined at the top level of a module."""
    found = set()
    for info in pkgutil.iter_modules(foresthall.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"foresthall.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                found.add(value)
    return found


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
