"""Interned trees and forests, checked against a test-local oracle, and the
shared words and compositions that the QSym memos and the NSym coproduct
keep as keys.

The oracle reads the canonical text of each forest with its own parser
into nested ``(color, children)`` tuples and never builds a ``Tree`` or
``Forest``: it writes the text back with children and components reversed,
computes the recursive canonical key, and counts automorphisms by brute
force over vertex permutations.
"""

import copy
import itertools
import math
import pickle

import pytest

import foresthall
from foresthall import forest as forest_module
from foresthall.enumeration import forests_of_class
from foresthall.forest import ColorTable, Tree, format_forest, parse_forest
from foresthall.linear import LinComb
from foresthall.nsym import nsym_comul
from foresthall.qsym import quasi_shuffle, rho_t

A = ColorTable(("a",))
AB = ColorTable(("a", "b"))


def _universe():
    # Built in each test: other tests empty the intern tables, and objects
    # from before that are equal to, but not, the interned ones.
    for n in range(8):
        for f in forests_of_class((n,)):
            yield f, A
    for total in range(6):
        for i in range(total + 1):
            for f in forests_of_class((i, total - i)):
                yield f, AB


def _read(text, colors):
    """Canonical text -> list of ``(color id, [children])`` components."""
    if text == "0":
        return []
    pos = 0

    def tree():
        nonlocal pos
        end = pos
        while end < len(text) and text[end] not in "[],+":
            end += 1
        color, pos = colors.names.index(text[pos:end]), end
        kids = []
        if pos < len(text) and text[pos] == "[":
            pos += 1
            kids.append(tree())
            while text[pos] == ",":
                pos += 1
                kids.append(tree())
            pos += 1  # the closing bracket
        return (color, kids)

    components = [tree()]
    while pos < len(text):
        pos += 1  # the "+"
        components.append(tree())
    return components


def _write_reversed(components, colors):
    def tree(node):
        color, kids = node
        name = colors.names[color]
        if not kids:
            return name
        return f"{name}[{','.join(tree(k) for k in reversed(kids))}]"

    return "+".join(tree(c) for c in reversed(components)) or "0"


def _oracle_key(node):
    color, kids = node
    return (color, tuple(sorted(_oracle_key(k) for k in kids)))


def _vertices(components):
    """Parallel lists of colors and parents (-1 for a root)."""
    colors, parents = [], []

    def visit(node, parent):
        colors.append(node[0])
        parents.append(parent)
        me = len(colors) - 1
        for kid in node[1]:
            visit(kid, me)

    for root in components:
        visit(root, -1)
    return colors, parents


def _brute_aut(components):
    """Color- and parent-preserving permutations of the vertices."""
    colors, parents = _vertices(components)
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    groups = list(by_color.values())
    count = 0
    for images in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        sigma = {-1: -1}
        for group, image in zip(groups, images):
            sigma.update(zip(group, image))
        if all(parents[sigma[v]] == sigma[parents[v]] for v in sigma if v >= 0):
            count += 1
    return count


def test_universe_size():
    # 1 + 1 + 2 + 4 + 9 + 20 + 48 + 115 forests in one color, and
    # 1 + 2 + 7 + 26 + 107 + 458 in two colors.
    assert len(list(_universe())) == 200 + 601


@pytest.mark.parametrize("colors", [A, AB], ids=["1-color", "2-color"])
def test_reversed_text_parses_to_the_same_object(colors):
    for f, table in _universe():
        if table is not colors:
            continue
        components = _read(format_forest(f, table), table)
        again = parse_forest(_write_reversed(components, table), table)
        assert again is f, format_forest(f, table)
        for tree, node in zip(f.trees, components):
            assert parse_forest(_write_reversed([node], table), table).trees[
                0
            ] is tree


def test_key_is_the_recursive_canonical_key():
    for f, table in _universe():
        components = _read(format_forest(f, table), table)
        assert f.key == tuple(sorted(_oracle_key(c) for c in components))
        for tree, node in zip(f.trees, components):
            assert tree.key == _oracle_key(node)


def test_automorphism_counts_match_brute_force():
    checked = 0
    for f, table in _universe():
        if f.size > 6:
            continue
        components = _read(format_forest(f, table), table)
        assert f.aut == _brute_aut(components), format_forest(f, table)
        for tree, node in zip(f.trees, components):
            assert tree.aut == _brute_aut([node])
        checked += 1
    assert checked == 85 + 601


def test_brute_force_counts_known_groups():
    # the oracle itself: a star with k leaves has k! automorphisms
    for k in range(5):
        assert _brute_aut([(0, [(0, [])] * k)]) == math.factorial(k)
    assert _brute_aut([(0, [(0, []), (1, [])])]) == 1


def test_negative_color_is_refused_without_a_table_entry():
    before = dict(forest_module._TREES)
    with pytest.raises(ValueError):
        Tree(-1)
    with pytest.raises(ValueError):
        Tree(-1, [Tree(0)])
    leaf = Tree(0)
    assert {k: v for k, v in forest_module._TREES.items() if k[0] < 0} == {}
    assert set(forest_module._TREES) - set(before) <= {(0, ())}
    assert Tree(0) is leaf


def test_copies_and_pickles_are_the_interned_object():
    f = parse_forest("a[b,a[b]]+b", AB)
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert pickle.loads(pickle.dumps(f.trees[0])) is f.trees[0]


def _images():
    return [rho_t(f, len(table.names)) for f, table in _universe()]


def _assert_shared(keys):
    """Every key is the table's object of its value; returns how many."""
    count = 0
    for key in keys:
        assert forest_module._WORDS.get(key) is key, key
        count += 1
    return count


def test_rho_t_keys_are_shared():
    keys = [key for image in _images() for key in image.terms if key]
    assert _assert_shared(keys) == 26_948
    assert len({id(key) for key in keys}) == 522


def _compositions():
    # the two-color compositions of total at most 3
    comps = {()}
    for f, table in _universe():
        if table is AB and f.size <= 3:
            comps.update(rho_t(f, 2).terms)
    return sorted(comps)


def test_quasi_shuffle_and_comul_keys_are_shared():
    comps = _compositions()
    assert len(comps) == 1 + 2 + 7 + 24
    nonempty = [LinComb.basis(c) for c in comps if c]
    shuffled = 0
    for x in nonempty:
        for y in nonempty:
            shuffled += _assert_shared(quasi_shuffle(x, y).terms)
    halves = 0
    for w in comps:
        for left, right in nsym_comul(LinComb.basis(w)).terms:
            halves += _assert_shared(half for half in (left, right) if half)
    assert shuffled and halves


def test_clear_caches_empties_the_word_table():
    before = _images()
    assert forest_module._WORDS
    foresthall.clear_caches()
    assert forest_module._WORDS == {}
    assert _images() == before
