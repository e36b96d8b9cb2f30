"""The Hall algebra of colored rooted forests.

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

n_M is counted by a recursion over B, the Grossman-Larson grafting: S onto
a tree T hangs part of S at T's root and grafts the rest into T's children;
S onto a forest splits between its first tree and the others; the part of A
placed nowhere becomes new components.  A split sending j of a run of m
equal components one way stands for the C(m, j) choices of which labelled
ones go, so weighting it by those binomials keeps n_M an ordered-assignment
count.  The grafts onto each tree, and each forest of two or more trees,
are memoized on the interned objects and shared by every pair (A, B).

The coproduct is dual to disjoint union: delta_A splits into the distinct
ordered pairs (A', A'') with A' + A'' isomorphic to A, each with coefficient
one.  Together these make the span of the deltas a co-commutative connected
graded bialgebra, hence a Hopf algebra; the antipode is computed by the
standard recursion.

The dual W basis (indexed by the same forests) is the Connes-Kreimer side:
it multiplies by ``forest.direct_sum`` and comultiplies over
``cuts.enumerate_cuts``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .enumeration import check_size, forests_of_class
from .forest import Forest, Tree
from .linear import LinComb, bilinear, extend

__all__ = [
    "delta",
    "hall_mul",
    "hall_comul",
    "kappa",
    "counit",
    "antipode",
]


def delta(forest: Forest) -> LinComb:
    """The basis element delta_F as a linear combination."""
    return LinComb.basis(forest)


@lru_cache(maxsize=None)
def _splits(s: Forest) -> tuple:
    """Every split of the multiset ``s`` into ``(x, y, ways)``: a run of m
    equal components sends j of them to x, and ``ways``, the product of the
    C(m, j), counts the ways to choose which of the labelled ones go."""
    runs = [(t, len(list(group))) for t, group in itertools.groupby(s.trees)]
    out = []
    for picks in itertools.product(*(range(m + 1) for _, m in runs)):
        x, y, ways = [], [], 1
        for (t, m), j in zip(runs, picks):
            x.extend([t] * j)
            y.extend([t] * (m - j))
            ways *= math.comb(m, j)
        out.append((Forest(x), Forest(y), ways))
    return tuple(out)


def _onto(s: Forest, f: Forest):
    """``(trees, n)`` pairs: each way to hang every component of ``s`` below
    some vertex of ``f``, as the components built, and n the assignments."""
    if not s:
        return ((f.trees, 1),)
    if not f:
        return ()
    if len(f.trees) == 1:
        return (((t,), n) for t, n in _graft_tree(s, f.trees[0]).items())
    return ((g.trees, n) for g, n in _graft_forest(s, f).items())


def _hang(s: Forest, f: Forest, build) -> dict:
    """``{build(trees): n}``: part of ``s`` kept as is, the rest hung below
    vertices of ``f``, and n the assignments that do so."""
    counts: dict = {}
    for kept, rest, ways in _splits(s):
        for grown, n in _onto(rest, f):
            built = build(grown + kept.trees)
            counts[built] = counts.get(built, 0) + ways * n
    return counts


@lru_cache(maxsize=None)
def _graft_tree(s: Forest, t: Tree) -> dict:
    """``{T': n}``: the non-empty ``s`` hung below vertices of ``t``, part
    at the root and the rest into the root's children."""
    return _hang(s, Forest(t.children), lambda kids: Tree(t.color, kids))


@lru_cache(maxsize=None)
def _graft_forest(s: Forest, f: Forest) -> dict:
    """``{F': n}``: the non-empty ``s`` hung below vertices of ``f``, which
    has two or more components, part onto the first and the rest beside."""
    first, rest = f.trees[0], Forest(f.trees[1:])
    counts: dict = {}
    for x, y, ways in _splits(s):
        for t, n in _graft_tree(x, first).items() if x else ((first, 1),):
            for r, k in _onto(y, rest):
                grown = Forest((t,) + r)
                counts[grown] = counts.get(grown, 0) + ways * n * k
    return counts


def _graft_candidates(a: Forest, b: Forest) -> dict:
    """``{M: n_M}`` over the forests M obtainable by attaching each component
    of ``a`` at some vertex of ``b`` or adding it as a new component; n_M
    counts the ordered assignments of ``a``'s components that build M.

    Every M with a cut (pruned=A, root=B) arises this way: undoing the cut
    re-attaches each pruned component below its former parent in B, or
    reinstates it as a component of M when the full cut removed it.
    """
    return _hang(a, b, Forest)


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
    return LinComb._merged({(x, y): 1 for x, y, _ in _splits(a)})


def hall_comul(f: LinComb) -> LinComb:
    """Coproduct dual to disjoint union: delta_A splits into every distinct
    ordered pair (A', A'') with A' + A'' isomorphic to A, coefficient one."""
    return extend(f, _delta_comul)


def kappa(alpha, limit: int | None = None) -> LinComb:
    """Characteristic function of a class: the sum of delta_F over every
    forest F of class ``alpha``.  kappa of the zero class is the unit."""
    # forests_of_class lists each isomorphism class once.
    return LinComb._merged({f: 1 for f in forests_of_class(alpha, limit)})


def counit(f: LinComb) -> Fraction:
    """Coefficient at the empty forest."""
    return f.coeff(Forest())


def antipode(f: LinComb, limit: int | None = None) -> LinComb:
    """Hopf antipode, by the connected graded recursion."""
    for forest in f.terms:
        check_size("forest", forest.size, limit)
    return extend(f, _antipode_delta)


@lru_cache(maxsize=None)
def _antipode_delta(a: Forest) -> LinComb:
    # S(x) = -sum S(x') x'' over the terms (x', x'') of the coproduct with
    # x'' nonempty; (empty, x) gives the -x.  Terminates because x' is
    # strictly smaller in every other term.
    if a.size == 0:
        return LinComb.basis(a)
    reduced = {p: c for p, c in _delta_comul(a).terms.items() if p[1]}
    return -extend(
        LinComb._merged(reduced),
        lambda p: hall_mul(_antipode_delta(p[0]), delta(p[1])),
    )

