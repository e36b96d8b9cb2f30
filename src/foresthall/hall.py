"""The Hall algebra of colored rooted forests, and its graded dual.

The delta basis is indexed by canonical forests.  The product counts
admissible cuts: the coefficient of delta_M in delta_A * delta_B is the
number of cuts of M whose pruned part is isomorphic to A and whose root part
is isomorphic to B.  It is computed as a Ringel-Hall orbit count, without
listing the cuts of M:

    coeff(M) = n_M * |Aut M| / (|Aut A| * |Aut B|)

where n_M is the number of ordered assignments sending each component of A
to a vertex of B (it hangs below that vertex) or to "new component" that
build M.  Aut M acts freely on the triples (cut, isomorphism A -> pruned
part, isomorphism B -> root part), there are coeff(M) |Aut A| |Aut B| of
them, and their orbits are exactly those assignments, so the division is
exact.  Raw assignment counts alone are wrong whenever automorphisms
identify attachment sites.  Automorphism counts are held on the interned
forests (``Forest.aut``), computed once per isomorphism class.

The coproduct is dual to disjoint union: delta_A splits into the distinct
ordered pairs (A', A'') with A' + A'' isomorphic to A, each with coefficient
one.  Together these make the span of the deltas a co-commutative connected
graded bialgebra, hence a Hopf algebra; the antipode is computed by the
standard recursion.

The dual W basis (indexed by the same forests) multiplies by disjoint union
and comultiplies over admissible cuts; ck_mul/ck_comul expose that side at
the basis level.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .cuts import enumerate_cuts
from .enumeration import check_size, forests_of_class
from .forest import Forest, Tree, direct_sum
from .linear import LinComb, bilinear

__all__ = [
    "delta",
    "hall_mul",
    "hall_comul",
    "kappa",
    "counit",
    "antipode",
    "ck_mul",
    "ck_comul",
]


def delta(forest: Forest) -> LinComb:
    """The basis element delta_F as a linear combination."""
    return LinComb.basis(forest)


def _attach(tree: Tree, base: int, extras: dict) -> Tree:
    """``tree`` with extra subtrees grafted below the vertices whose preorder
    indices appear in ``extras``; subtrees without a graft are kept as is."""
    if not any(base <= v < base + tree.size for v in extras):
        return tree
    new_children = []
    child_base = base + 1
    for child in tree.children:
        new_children.append(_attach(child, child_base, extras))
        child_base += child.size
    new_children.extend(extras.get(base, ()))
    return Tree(tree.color, new_children)


def _graft_candidates(a: Forest, b: Forest) -> dict:
    """``{M: n_M}`` over the forests M obtainable by attaching each component
    of ``a`` at some vertex of ``b`` or adding it as a new component; n_M
    counts the ordered assignments of ``a``'s components that build M.

    Every M with a cut (pruned=A, root=B) arises this way: undoing the cut
    re-attaches each pruned component below its former parent in B, or
    reinstates it as a component of M when the full cut removed it.  A run
    of m equal components is grafted over multisets of targets, each
    standing for m! / (product of its multiplicities!) ordered assignments.
    """
    # Target -1 is "new component"; vertex v of b is (component, preorder).
    sites = [
        (ci, v) for ci, tree in enumerate(b.trees) for v in range(tree.size)
    ]
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
    counts: dict = {}
    for choice in itertools.product(*per_run):
        extras: list[dict] = [{} for _ in b.trees]
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
            _attach(tree, 0, extra) if extra else tree
            for tree, extra in zip(b.trees, extras)
        ]
        m = Forest(tuple(components) + tuple(standalone))
        counts[m] = counts.get(m, 0) + n
    return counts


@lru_cache(maxsize=None)
def _delta_mul(a: Forest, b: Forest) -> LinComb:
    counts = _graft_candidates(a, b)
    scale = a.aut * b.aut
    ordered = sorted(counts, key=lambda f: f.key)
    return LinComb._merged({m: counts[m] * m.aut // scale for m in ordered})


def hall_mul(f: LinComb, g: LinComb) -> LinComb:
    """Convolution product, extended bilinearly from the delta basis."""
    return bilinear(f, g, _delta_mul)


@lru_cache(maxsize=None)
def _delta_comul(a: Forest) -> LinComb:
    # Distinct ordered splittings of the component multiset; equal components
    # are adjacent in the canonical order, so groupby sees them together.
    distinct = [
        (tree, len(list(group))) for tree, group in itertools.groupby(a.trees)
    ]
    terms = []
    for picks in itertools.product(*(range(c + 1) for _, c in distinct)):
        left: list[Tree] = []
        right: list[Tree] = []
        for (tree, count), k in zip(distinct, picks):
            left.extend([tree] * k)
            right.extend([tree] * (count - k))
        terms.append(((Forest(left), Forest(right)), 1))
    return LinComb(terms)


def hall_comul(f: LinComb) -> LinComb:
    """Coproduct dual to disjoint union: delta_A splits into every distinct
    ordered pair (A', A'') with A' + A'' isomorphic to A, coefficient one."""
    out = []
    for a, c in f.terms.items():
        out.extend((pair, c * v) for pair, v in _delta_comul(a).terms.items())
    return LinComb(out)


def kappa(alpha, limit: int | None = None) -> LinComb:
    """Characteristic function of a class: the sum of delta_F over every
    forest F of class ``alpha``.  kappa of the zero class is the unit."""
    return LinComb((f, 1) for f in forests_of_class(alpha, limit))


def counit(f: LinComb) -> Fraction:
    """Coefficient at the empty forest."""
    return f.coeff(Forest())


def antipode(f: LinComb, limit: int | None = None) -> LinComb:
    """Hopf antipode, by the connected graded recursion."""
    for forest in f.terms:
        check_size("forest", forest.size, limit)
    out = []
    for forest, c in f.terms.items():
        image = _antipode_delta(forest)
        out.extend((k, c * v) for k, v in image.terms.items())
    return LinComb(out)


@lru_cache(maxsize=None)
def _antipode_delta(a: Forest) -> LinComb:
    # S(x) = -x - sum S(x') x'' over the reduced coproduct; terminates
    # because both tensor legs of every reduced term are strictly smaller.
    if a.size == 0:
        return LinComb.basis(a)
    terms = [(a, -1)]
    for (left, right), c in _delta_comul(a).terms.items():
        if left.size == 0 or right.size == 0:
            continue
        product = hall_mul(_antipode_delta(left), LinComb.basis(right))
        terms.extend((k, -c * v) for k, v in product.terms.items())
    return LinComb(terms)


def ck_mul(a: Forest, b: Forest) -> Forest:
    """Product on the dual W basis: disjoint union of the indexing forests."""
    return direct_sum(a, b)


def ck_comul(a: Forest) -> list[tuple[Forest, Forest]]:
    """Coproduct terms on the dual W basis: the (pruned, root) pair of each
    admissible cut, in ``enumerate_cuts`` order, repeats included."""
    return [(pruned, root) for _, pruned, root in enumerate_cuts(a)]
