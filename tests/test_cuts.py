"""Admissible cuts checked against an independent edge-subset oracle.

The oracle enumerates every subset of edges, keeps those meeting each
root-to-leaf path at most once, splits by deleting edges, and adds the formal
full cut per component, labelled by the edge above the root.  It shares no
code with the library's slot-product recursion.
"""

import itertools
from collections import Counter

from foresthall.cuts import enumerate_cuts
from foresthall.enumeration import forests_of_class, trees_of_class
from foresthall.forest import (
    ColorTable,
    Forest,
    Tree,
    add_classes,
    k0_class,
    parse_forest,
)
from foresthall.qsym import rho_t

AB = ColorTable(("a", "b"))


def _edges(tree, base=0):
    out = []
    child_base = base + 1
    for child in tree.children:
        out.append((base, child_base))
        out.extend(_edges(child, child_base))
        child_base += child.size
    return out


def _leaf_paths(tree, base=0):
    if not tree.children:
        return [frozenset()]
    out = []
    child_base = base + 1
    for child in tree.children:
        edge = (base, child_base)
        out.extend(path | {edge} for path in _leaf_paths(child, child_base))
        child_base += child.size
    return out


def _split(tree, cut_edges, base=0):
    """Delete the cut edges; returns (fallen subtrees, kept tree)."""
    kept_children = []
    pruned = []
    child_base = base + 1
    for child in tree.children:
        if (base, child_base) in cut_edges:
            pruned.append(child)
        else:
            sub_pruned, kept = _split(child, cut_edges, child_base)
            pruned.extend(sub_pruned)
            kept_children.append(kept)
        child_base += child.size
    return pruned, Tree(tree.color, kept_children)


def _oracle_tree_cuts(tree):
    """(cut edges by child preorder index, pruned trees, kept trees) per cut;
    the full cut cuts edge 0, the one above the root."""
    edges = _edges(tree)
    paths = _leaf_paths(tree)
    results = []
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            chosen = frozenset(subset)
            if all(len(chosen & path) <= 1 for path in paths):
                pruned, kept = _split(tree, chosen)
                label = frozenset(child for _, child in chosen)
                results.append((label, tuple(pruned), (kept,)))
    results.append((frozenset((0,)), (tree,), ()))
    return results


def _oracle_cuts(forest):
    """Counter of (per-component labels, pruned, root) over all cuts."""
    per_component = [_oracle_tree_cuts(t) for t in forest.trees]
    cuts = Counter()
    for combo in itertools.product(*per_component):
        labels = tuple(label for label, _, _ in combo)
        pruned = Forest(itertools.chain.from_iterable(p for _, p, _ in combo))
        roots = Forest(itertools.chain.from_iterable(r for _, _, r in combo))
        cuts[labels, pruned, roots] += 1
    return cuts


def _oracle_census(forest):
    census = Counter()
    for (_, pruned, roots), n in _oracle_cuts(forest).items():
        census[pruned, roots] += n
    return census


def _census(forest):
    """How many cuts of ``forest`` the library lists per (pruned, root)."""
    return Counter((p, r) for _, p, r in enumerate_cuts(forest))


def _mask_edges(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _universe(max_total):
    return [
        f
        for total in range(max_total + 1)
        for i in range(total + 1)
        for f in forests_of_class((i, total - i))
    ]


def test_census_matches_oracle_two_colors():
    for forest in _universe(4):
        assert _census(forest) == _oracle_census(forest), forest


def test_census_matches_oracle_deeper_single_color():
    for forest in forests_of_class((6,)):
        assert _census(forest) == _oracle_census(forest), forest


def test_census_matches_oracle_six_edge_trees():
    # deepest single trees: 7 vertices = 6 edges, 2^6 subsets each
    for tree in trees_of_class((7,)):
        forest = Forest((tree,))
        assert _census(forest) == _oracle_census(forest), forest


def test_cut_labels_match_oracle():
    # every mask names the edges the oracle cut, with the same split
    universe = (
        *_universe(4),
        *forests_of_class((6,)),
        *(Forest((t,)) for t in trees_of_class((7,))),
    )
    for forest in universe:
        got = Counter(
            (tuple(map(_mask_edges, masks)), pruned, root)
            for masks, pruned, root in enumerate_cuts(forest)
        )
        assert got == _oracle_cuts(forest), forest


def test_cut_count_equals_oracle_count():
    # total cuts = admissible edge subsets + one full cut per component mix
    for forest in _universe(4):
        assert len(enumerate_cuts(forest)) == sum(
            _oracle_census(forest).values()
        )


def test_single_vertex_has_two_cuts():
    forest = parse_forest("a", AB)
    pairs = [(pruned, root) for _, pruned, root in enumerate_cuts(forest)]
    empty = Forest()
    assert sorted(pairs, key=lambda p: (p[0].key, p[1].key)) == [
        (empty, forest),
        (forest, empty),
    ]


def test_chain_cuts():
    chain = parse_forest("a[b]", AB)
    census = _census(chain)
    b, a = parse_forest("b", AB), parse_forest("a", AB)
    assert census == {
        (Forest(), chain): 1,
        (b, a): 1,
        (chain, Forest()): 1,
    }


def test_three_vertex_example_census():
    forest = parse_forest("a[b,a]", AB)
    got = {
        (_fmt(pruned), _fmt(root)): count
        for (pruned, root), count in _census(forest).items()
    }
    assert got == {
        ("0", "a[a,b]"): 1,
        ("a", "a[b]"): 1,
        ("b", "a[a]"): 1,
        ("a+b", "a"): 1,
        ("a[a,b]", "0"): 1,
    }


def _fmt(forest):
    from foresthall.forest import format_forest

    return format_forest(forest, AB)


def test_full_cut_is_marked():
    forest = parse_forest("a[b]", AB)
    full = [masks for masks, _, root in enumerate_cuts(forest) if not root]
    assert full == [(1,)]


def test_class_additivity_over_cuts():
    for forest in _universe(4):
        total = k0_class(forest, 2)
        for _, pruned, root in enumerate_cuts(forest):
            assert add_classes(k0_class(pruned, 2), k0_class(root, 2)) == total


def test_census_orientation():
    # pruned part comes first: a[b] splits as (b, a), never (a, b)
    census = _census(parse_forest("a[b]", AB))
    a, b = parse_forest("a", AB), parse_forest("b", AB)
    assert census[b, a] == 1
    assert (a, b) not in census


def test_census_multiplicity():
    one, two = parse_forest("a", AB), parse_forest("a+a", AB)
    # the empty cut, either vertex alone, or both
    assert _census(two) == {
        (Forest(), two): 1,
        (one, one): 2,
        (two, Forest()): 1,
    }
    assert _census(parse_forest("a[a]", AB))[one, one] == 1


def test_empty_forest_has_one_cut():
    [(masks, pruned, root)] = enumerate_cuts(Forest())
    assert masks == ()
    assert pruned == Forest() and root == Forest()


# --- flags ------------------------------------------------------------------


def _flags(forest, k, ncolors):
    """The k-step flags of ``forest`` with their counts."""
    counts = rho_t(forest, ncolors).terms
    return {flag: n for flag, n in counts.items() if len(flag) == k}


def test_flags_single_vertex():
    assert _flags(parse_forest("a", AB), 1, 2) == {((1, 0),): 1}
    assert _flags(parse_forest("a", AB), 2, 2) == {}


def test_flags_duplicates_count():
    flags = _flags(parse_forest("a+a", ColorTable(("a",))), 2, 1)
    assert flags == {((1,), (1,)): 2}


def test_flags_three_vertex_worked_example():
    forest = parse_forest("a[b,a]", AB)
    assert _flags(forest, 1, 2) == {((2, 1),): 1}
    assert _flags(forest, 2, 2) == {
        ((1, 1), (1, 0)): 1,
        ((1, 0), (1, 1)): 1,
        ((0, 1), (2, 0)): 1,
    }
    assert _flags(forest, 3, 2) == {
        ((1, 0), (0, 1), (1, 0)): 1,
        ((0, 1), (1, 0), (1, 0)): 1,
    }
    assert _flags(forest, 4, 2) == {}


def test_flag_step_classes_sum_to_forest_class():
    for forest in _universe(3):
        if not forest:
            continue
        for k in range(1, forest.size + 1):
            for flag in _flags(forest, k, 2):
                assert len(flag) == k
                assert all(any(step) for step in flag)
                total = (0, 0)
                for step in flag:
                    total = add_classes(total, step)
                assert total == k0_class(forest, 2)
