"""Class-indexed forest generation, checked against the independent
counter of the ``counts`` suite."""

import pytest

from foresthall.enumeration import (
    DEFAULT_SIZE_LIMIT,
    SizeLimitError,
    forests_of_class,
    trees_of_class,
)
from foresthall.forest import ColorTable, Forest, Tree, format_forest, k0_class
from foresthall.verify import _forest_counts, run_suite

AB = ColorTable(("a", "b"))

# OEIS A000081, a(1) to a(14): entry n counts the rooted trees on n + 1
# vertices, each a root over one of the single-color forests on n vertices
ROOTED_TREES = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973]


def test_pinned_single_color_counts():
    assert list(_forest_counts(1, 13).values()) == ROOTED_TREES
    assert [len(forests_of_class((n,))) for n in range(7)] == ROOTED_TREES[:7]


def test_empty_class():
    assert forests_of_class((0, 0)) == [Forest()]
    assert _forest_counts(2, 0) == {(0, 0): 1}


def test_two_color_small_lists():
    assert {format_forest(f, AB) for f in forests_of_class((1, 1))} == {
        "a+b",
        "a[b]",
        "b[a]",
    }
    assert {format_forest(f, AB) for f in forests_of_class((2, 0))} == {
        "a+a",
        "a[a]",
    }
    assert {format_forest(f, AB) for f in forests_of_class((0, 1))} == {"b"}


def test_generator_agrees_with_counter():
    for names, bound in [("ab", 6), ("abc", 4)]:
        report = run_suite("counts", ColorTable(names), bound)
        assert report["failures"] == [], (names, bound)


def test_generated_forests_have_the_right_class():
    for total in range(5):
        for i in range(total + 1):
            alpha = (i, total - i)
            forests = forests_of_class(alpha)
            assert len(set(forests)) == len(forests)
            for forest in forests:
                assert k0_class(forest, 2) == alpha


def test_deterministic_sorted_order():
    first = forests_of_class((3, 1))
    second = forests_of_class((3, 1))
    assert first == second
    assert first == sorted(first, key=lambda f: f.key)


def test_trees_of_class():
    assert trees_of_class((1,)) == [Tree(0)]
    assert {format_forest(Forest([t]), AB) for t in trees_of_class((2, 0))} == {
        "a[a]"
    }
    assert {format_forest(Forest([t]), AB) for t in trees_of_class((1, 1))} == {
        "a[b]",
        "b[a]",
    }
    # a tree is a root over a forest: tree count on n equals forest count on n-1
    for n in range(1, 7):
        assert len(trees_of_class((n,))) == len(forests_of_class((n - 1,)))


def test_color_permutation_symmetry():
    def swap(tree):
        return Tree(1 - tree.color, [swap(c) for c in tree.children])

    for total in range(5):
        for i in range(total + 1):
            alpha = (i, total - i)
            flipped = (total - i, i)
            images = {
                Forest([swap(t) for t in f.trees])
                for f in forests_of_class(alpha)
            }
            assert images == set(forests_of_class(flipped))


def test_size_guard():
    limit_class = (DEFAULT_SIZE_LIMIT + 1,)
    with pytest.raises(SizeLimitError):
        forests_of_class(limit_class)
    with pytest.raises(SizeLimitError):
        trees_of_class((4,), limit=3)
    # explicit limit loosens as well as tightens
    assert len(forests_of_class((4,), limit=4)) == 9
    with pytest.raises(SizeLimitError):
        forests_of_class((2, 2), limit=3)


def test_class_validation():
    with pytest.raises(ValueError):
        forests_of_class((-1, 2))
    with pytest.raises(ValueError):
        forests_of_class(())
