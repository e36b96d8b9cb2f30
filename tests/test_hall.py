"""Hall algebra structure constants, coproduct and antipode."""

import ast
import inspect
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

import foresthall.hall
from foresthall.cuts import enumerate_cuts
from foresthall.enumeration import SizeLimitError, forests_of_class
from foresthall.forest import (
    ColorTable,
    Forest,
    Tree,
    add_classes,
    direct_sum,
    format_forest,
    k0_class,
    parse_forest,
)
from foresthall.hall import (
    _delta_mul,
    _graft_candidates,
    antipode,
    counit,
    delta,
    hall_comul,
    hall_mul,
    kappa,
)
from foresthall.linear import LinComb

AB = ColorTable(("a", "b"))


def _f(text):
    return parse_forest(text, AB)


def _named(elem):
    return {format_forest(k, AB): c for k, c in elem.terms.items()}


def _named_pairs(elem):
    return {
        (format_forest(x, AB), format_forest(y, AB)): c
        for (x, y), c in elem.terms.items()
    }


def _universe(max_total):
    return [
        f
        for total in range(max_total + 1)
        for i in range(total + 1)
        for f in forests_of_class((i, total - i))
    ]


def test_single_vertex_square():
    prod = hall_mul(delta(_f("a")), delta(_f("a")))
    assert _named(prod) == {"a+a": 2, "a[a]": 1}


def test_mixed_color_product_orientation():
    # the left factor is the pruned part: it lands above the right factor
    prod = hall_mul(delta(_f("a")), delta(_f("b")))
    assert _named(prod) == {"a+b": 1, "b[a]": 1}
    other = hall_mul(delta(_f("b")), delta(_f("a")))
    assert _named(other) == {"a+b": 1, "a[b]": 1}


def test_product_with_unit():
    unit = delta(Forest())
    for forest in _universe(3):
        assert hall_mul(unit, delta(forest)) == delta(forest)
        assert hall_mul(delta(forest), unit) == delta(forest)


# (colors, max vertices of A + B) for the exhaustive cross-check.
PRODUCT_UNIVERSES = ((1, 7), (2, 5), (3, 4))


def _forests_upto(ncolors, max_vertices):
    return [
        f
        for total in range(max_vertices + 1)
        for alpha in itertools.product(range(total + 1), repeat=ncolors)
        if sum(alpha) == total
        for f in forests_of_class(alpha)
    ]


def test_product_coefficients_are_cut_counts():
    # The product reads coefficients off graft multiplicities and
    # automorphism counts; the census counts the cuts of every M directly,
    # on every pair of the universes above.
    pairs = 0
    for ncolors, bound in PRODUCT_UNIVERSES:
        universe = _forests_upto(ncolors, bound)
        census = {}  # census[(A, B)][M]: the cuts of M into (A, B)
        for m in universe:
            for _, pruned, root in enumerate_cuts(m):
                census.setdefault((pruned, root), Counter())[m] += 1
        for a in universe:
            for b in universe:
                if a.size + b.size > bound:
                    continue
                expected = LinComb(census.get((a, b), {}))
                assert _delta_mul(a, b) == expected, (a, b)
                pairs += 1
    assert pairs == 4975


def _attach(tree, base, extras):
    """``tree`` with extra subtrees grafted below the vertices whose preorder
    indices (counted from ``base``) appear in ``extras``."""
    new_children = []
    child_base = base + 1
    for child in tree.children:
        new_children.append(_attach(child, child_base, extras))
        child_base += child.size
    new_children.extend(extras.get(base, ()))
    return Tree(tree.color, new_children)


def _assignment_counts(a, b):
    """``{M: n_M}`` by listing graft assignments: each run of m equal
    components of ``a`` goes to a multiset of targets (-1 for "new
    component", else a vertex of ``b`` in preorder), which stands for
    m! / (product of its multiplicities!) ordered assignments."""
    sites = [(ci, v) for ci, t in enumerate(b.trees) for v in range(t.size)]
    per_run = []
    for tree, group in itertools.groupby(a.trees):
        m = len(list(group))
        options = []
        for combo in itertools.combinations_with_replacement(
            range(-1, b.size), m
        ):
            ways = math.factorial(m)
            for _, same in itertools.groupby(combo):
                ways //= math.factorial(len(list(same)))
            options.append((tree, combo, ways))
        per_run.append(options)
    counts = Counter()
    for choice in itertools.product(*per_run):
        extras = [{} for _ in b.trees]
        standalone = []
        n = 1
        for tree, combo, ways in choice:
            n *= ways
            for target in combo:
                if target < 0:
                    standalone.append(tree)
                else:
                    ci, v = sites[target]
                    extras[ci].setdefault(v, []).append(tree)
        components = [
            _attach(tree, 0, extra) for tree, extra in zip(b.trees, extras)
        ]
        counts[Forest(components + standalone)] += n
    return dict(counts)


def test_graft_counts_match_listed_assignments():
    # The recursion over B shares sub-grafts between pairs; the oracle lists
    # every multiset of graft sites and builds each M on its own.
    pairs = 0
    for ncolors, bound in PRODUCT_UNIVERSES:
        universe = _forests_upto(ncolors, bound)
        for a in universe:
            for b in universe:
                if a.size + b.size <= bound:
                    assert _graft_candidates(a, b) == _assignment_counts(
                        a, b
                    ), (a, b)
                    pairs += 1
    assert pairs == 4975


@pytest.mark.parametrize(
    "text, count",
    [
        ("a[a,a]", 2),
        ("a+a", 2),
        ("a[a[a],a[a]]", 2),
        ("a[a,b]", 1),
        ("a[b,b]+a[b,b]", 8),
        ("0", 1),
    ],
)
def test_automorphism_counts(text, count):
    forest = _f(text)
    assert forest.aut == count
    if len(forest.trees) == 1:
        assert forest.trees[0].aut == count


def test_graft_multiplicities_are_rescaled_by_automorphisms():
    # Raw assignment counts here are 1, 1 and 2: the two leaves of a[a,a]
    # are one orbit, and a[a,a,a] has three cuts with pruned part a.
    prod = hall_mul(delta(_f("a")), delta(_f("a[a,a]")))
    assert _named(prod) == {"a+a[a,a]": 1, "a[a,a,a]": 3, "a[a,a[a]]": 1}


def test_product_is_bilinear():
    x = delta(_f("a")) + 2 * delta(_f("b"))
    y = delta(_f("a[b]"))
    direct = hall_mul(x, y)
    expanded = hall_mul(delta(_f("a")), y) + 2 * hall_mul(delta(_f("b")), y)
    assert direct == expanded


def test_product_grading():
    for a in _universe(2):
        for b in _universe(2):
            gamma = add_classes(k0_class(a, 2), k0_class(b, 2))
            for m in hall_mul(delta(a), delta(b)).terms:
                assert k0_class(m, 2) == gamma


def test_kappa_mixed_class():
    assert _named(kappa((1, 1))) == {"a+b": 1, "a[b]": 1, "b[a]": 1}
    assert kappa((0, 0)) == delta(Forest())
    with pytest.raises(SizeLimitError):
        kappa((13, 0))
    assert len(kappa((5, 0), limit=5).terms) == 20


def test_comul_splits_components():
    pairs = _named_pairs(hall_comul(delta(_f("a+b"))))
    assert pairs == {
        ("0", "a+b"): 1,
        ("a", "b"): 1,
        ("b", "a"): 1,
        ("a+b", "0"): 1,
    }


def test_comul_repeated_component_coefficient_is_one():
    # distinct ordered splittings only: (a, a) appears once for a+a
    pairs = _named_pairs(hall_comul(delta(_f("a+a"))))
    assert pairs == {
        ("0", "a+a"): 1,
        ("a", "a"): 1,
        ("a+a", "0"): 1,
    }


def test_comul_connected_forest_is_primitive():
    pairs = _named_pairs(hall_comul(delta(_f("a[a,b]"))))
    assert pairs == {
        ("0", "a[a,b]"): 1,
        ("a[a,b]", "0"): 1,
    }


def test_counit():
    assert counit(delta(Forest())) == 1
    assert counit(delta(_f("a"))) == 0
    assert counit(3 * delta(Forest()) - delta(_f("a+b"))) == 3
    assert isinstance(counit(delta(Forest())), Fraction)


def test_antipode_small_values():
    assert antipode(delta(Forest())) == delta(Forest())
    assert antipode(delta(_f("a"))) == -delta(_f("a"))
    assert _named(antipode(delta(_f("a+a")))) == {"a+a": 1, "a[a]": 1}
    # connected two-vertex tree has trivial reduced coproduct
    assert antipode(delta(_f("a[a]"))) == -delta(_f("a[a]"))


def test_antipode_defining_identity():
    unit = delta(Forest())
    for forest in _universe(3):
        comul = hall_comul(delta(forest))
        acc = LinComb()
        for (x, y), c in comul.terms.items():
            acc = acc + c * hall_mul(antipode(delta(x)), delta(y))
        assert acc == counit(delta(forest)) * unit, forest


def test_antipode_is_an_involution_here():
    # co-commutative Hopf algebras have S * S = id
    for forest in _universe(3):
        assert antipode(antipode(delta(forest))) == delta(forest)


# (colors, max vertices) for the closed-form antipode check.
ANTIPODE_UNIVERSES = ((1, 6), (2, 4), (3, 3))


def _parent_array(forest):
    """Preorder ``(colors, parents)`` of ``forest``; a root's parent is -1."""
    colors, parents = [], []
    stack = [(t, -1) for t in reversed(forest.trees)]
    while stack:
        tree, parent = stack.pop()
        here = len(colors)
        colors.append(tree.color)
        parents.append(parent)
        stack.extend((c, here) for c in reversed(tree.children))
    return colors, parents


def _from_parent_array(colors, parents):
    """The forest with these preorder colors and parents."""
    kids = [[] for _ in colors]
    roots = []
    for v in range(len(colors) - 1, -1, -1):
        tree = Tree(colors[v], kids[v])
        (kids[parents[v]] if parents[v] >= 0 else roots).append(tree)
    return Forest(roots)


def test_antipode_closed_form():
    # The Hall antipode is the transpose of the Connes-Kreimer one, whose
    # closed form sums over every edge set: the coefficient of delta_M in
    # S(delta_A) is (-1)^{k(A)} times the number of edge sets c of M with
    # M - c isomorphic to A.  Counted by edge deletion, with no product.
    checked = 0
    for ncolors, bound in ANTIPODE_UNIVERSES:
        universe = _forests_upto(ncolors, bound)
        cuts = {a: Counter() for a in universe}
        for m in universe:
            colors, parents = _parent_array(m)
            edges = [v for v, p in enumerate(parents) if p >= 0]
            for r in range(len(edges) + 1):
                for c in itertools.combinations(edges, r):
                    cut = list(parents)
                    for v in c:
                        cut[v] = -1
                    cuts[_from_parent_array(colors, cut)][m] += 1
        for a in universe:
            sign = (-1) ** len(a.trees)
            expected = {m: sign * n for m, n in cuts[a].items()}
            assert antipode(delta(a)).terms == expected, a
            checked += len(expected)
    assert checked == 1466


def test_antipode_size_guard():
    with pytest.raises(SizeLimitError):
        antipode(delta(_f("a")), limit=0)


def test_the_product_cannot_read_cuts():
    # hall-oracle checks the product against a census of cuts, so the
    # product must not be built from them
    source = ast.parse(inspect.getsource(foresthall.hall))
    imported = set()
    for node in ast.walk(source):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
    assert "cuts" not in imported
    assert not hasattr(foresthall.hall, "enumerate_cuts")


def test_direct_sum_vs_comul_adjointness():
    # coeff of (A, B) in comul(M) is 1 exactly when A + B = M
    for m in _universe(3):
        comul = hall_comul(delta(m))
        for a in _universe(3):
            for b in _universe(3):
                expected = 1 if direct_sum(a, b) == m else 0
                assert comul.coeff((a, b)) == expected
