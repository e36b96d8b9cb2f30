"""The chain-count oracle on hand cases, and against the program."""

import itertools
import math
import random

import pytest

import inputs
import oracle
from foresthall import (
    ColorTable,
    LinComb,
    forests_of_class,
    parse_forest,
    rho,
    rho_t,
)

ONE = (0,)


def hook_count(parents) -> int:
    """n! over the product of subtree sizes: the linear extensions of a
    forest poset."""
    sizes = [1] * len(parents)
    for v in reversed(range(len(parents))):
        if parents[v] >= 0:
            sizes[parents[v]] += sizes[v]
    return math.factorial(len(parents)) // math.prod(sizes)


# Parent arrays with parents before children (needed by hook_count).
SHAPES = [
    [-1],
    [-1, 0, 1, 2],  # a chain
    [-1, -1, -1, -1],  # four roots
    [-1, 0, 0, 0],  # a root with three leaves
    [-1, 0, 0, 1, -1, 4],
    [-1, 0, 1, 1, 0, -1, 5, 5],
]


@pytest.mark.parametrize("parents", SHAPES)
def test_one_color_single_steps_follow_the_hook_length_formula(parents):
    n = len(parents)
    word = [(1,)] * n
    assert oracle.chain_count(parents, ONE * n, word, 1) == hook_count(parents)


def test_hook_length_hand_values():
    assert [hook_count(p) for p in SHAPES[1:4]] == [1, 24, 6]


@pytest.mark.parametrize("parents", SHAPES)
def test_one_letter_word_counts_one(parents):
    rng = random.Random(len(parents))
    colors = [rng.randrange(2) for _ in parents]
    gamma = oracle.vertex_class(colors, 2)
    assert oracle.chain_count(parents, colors, [gamma], 2) == 1


def test_total_chains_of_an_antichain_are_ordered_set_partitions():
    fubini = [1, 1, 3, 13, 75, 541]
    for n, want in enumerate(fubini):
        assert oracle.total_chains([-1] * n, [0] * n, 1) == want


def test_total_is_the_sum_over_compositions():
    parents, colors = [-1, 0, 0, -1, 3], [0, 1, 0, 1, 1]
    gamma = oracle.vertex_class(colors, 2)
    total = sum(
        oracle.chain_count(parents, colors, comp, 2)
        for comp in inputs.compositions(gamma)
    )
    assert total == oracle.total_chains(parents, colors, 2)


def test_flatten_reads_trees_colors_and_children():
    forest = parse_forest("a[b,a[b]]+b", ColorTable(("a", "b")))
    parents, colors = oracle.flatten(forest)
    assert sorted(colors) == [0, 0, 1, 1, 1]
    assert parents.count(-1) == 2
    assert oracle.vertex_class(colors, 2) == (2, 3)


def test_matches_rho_and_rho_t_of_the_program():
    gamma = (2, 2)
    words = inputs.compositions(gamma)
    for forest in forests_of_class(gamma):
        parents, colors = oracle.flatten(forest)
        expansion = rho_t(forest, 2)
        total = oracle.total_chains(parents, colors, 2)
        assert sum(expansion.terms.values()) == total
        for word in words:
            want = oracle.chain_count(parents, colors, word, 2)
            assert expansion.terms.get(word, 0) == want
    for word in itertools.islice(words, 0, None, 7):
        product = rho(LinComb.basis(word))
        for forest in forests_of_class(gamma):
            parents, colors = oracle.flatten(forest)
            want = oracle.chain_count(parents, colors, word, 2)
            assert product.terms.get(forest, 0) == want
