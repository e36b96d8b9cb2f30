"""Admissible cuts of canonical forests, and iterated-cut flags.

A cut of a tree either selects a set of edges meeting every root-to-leaf path
at most once, or is the formal full cut that prunes the whole tree.  Removing
the selected edges splits the tree into the pruned forest (the subtrees that
fall away from the root) and the root part; the full cut sends everything to
the pruned side, the empty edge set sends everything to the root side.  Cuts
of a forest choose one cut per component, independently.

Edges are named by the preorder index of their child vertex inside their
component, so enumeration is deterministic and repeat (pruned, root) pairs
coming from genuinely different edge sets stay distinguishable.

Cut lists are rebuilt on every call to ``enumerate_cuts``; what is memoized
is what is read off them: the per-tree cuts, the (pruned, root) census, and
the flag counts behind rho_t.  The census is not on the Hall product's
path (that counts graft orbits); it is the independent oracle that the
hall-oracle suite and the tests compare the product with.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .forest import Forest, Tree, k0_class

__all__ = [
    "FULL_CUT",
    "CutResult",
    "enumerate_cuts",
    "cut_census",
    "count_cut_pairs",
    "flag_counts",
    "enumerate_flags",
]

FULL_CUT = "full"


class CutResult(NamedTuple):
    pruned: Forest
    root_part: Forest


def _subtree_cuts(tree: Tree, base: int) -> list[tuple[frozenset, tuple, Tree]]:
    """All admissible edge subsets strictly inside ``tree``.

    Returns (edges, pruned trees, kept tree) triples; ``base`` is the
    preorder index of the root of ``tree`` within its component.  Each edge
    below the root is either cut (its whole subtree is pruned) or recursed
    into, which is exactly the once-per-path condition.
    """
    slots = []
    child_base = base + 1
    for child in tree.children:
        options = [(frozenset((child_base,)), (child,), None)]
        options.extend(_subtree_cuts(child, child_base))
        slots.append(options)
        child_base += child.size
    results = []
    for combo in itertools.product(*slots):
        edges = frozenset(
            itertools.chain.from_iterable(e for e, _, _ in combo)
        )
        pruned = tuple(
            itertools.chain.from_iterable(p for _, p, _ in combo)
        )
        kept = Tree(tree.color, [k for _, _, k in combo if k is not None])
        results.append((edges, pruned, kept))
    return results


@lru_cache(maxsize=None)
def _component_cuts(tree: Tree) -> tuple:
    """Edge-subset cuts of a single tree plus the formal full cut."""
    cuts = _subtree_cuts(tree, 0)
    cuts.append((FULL_CUT, (tree,), None))
    return tuple(cuts)


def enumerate_cuts(forest: Forest) -> tuple:
    """Every admissible cut of ``forest`` as (cut, CutResult) pairs.

    The cut itself is a tuple with one entry per component: either a
    frozenset of edge indices or FULL_CUT.  The order is deterministic.
    Nothing is cached: callers that need an aggregate memoize that instead.
    """
    per_component = [_component_cuts(t) for t in forest.trees]
    out = []
    for combo in itertools.product(*per_component):
        cut = tuple(entry[0] for entry in combo)
        pruned = tuple(
            itertools.chain.from_iterable(entry[1] for entry in combo)
        )
        roots = tuple(entry[2] for entry in combo if entry[2] is not None)
        out.append((cut, CutResult(Forest(pruned), Forest(roots))))
    return tuple(out)


@lru_cache(maxsize=None)
def cut_census(forest: Forest) -> dict:
    """How many cuts of ``forest`` produce each (pruned, root) pair."""
    census: dict = {}
    for _, result in enumerate_cuts(forest):
        census[result] = census.get(result, 0) + 1
    return census


def count_cut_pairs(m: Forest, a: Forest, b: Forest) -> int:
    """Number of cuts of ``m`` with pruned part ``a`` and root part ``b``.

    Zero whenever the sizes (hence the classes) cannot add up.
    """
    if a.size + b.size != m.size:
        return 0
    return cut_census(m).get((a, b), 0)


@lru_cache(maxsize=None)
def flag_counts(forest: Forest, ncolors: int) -> dict:
    """Class sequences of all iterated cuts of ``forest``, with multiplicity.

    A flag is a sequence of admissible cuts: the first cut splits ``forest``,
    the next cut splits the pruned remainder, and so on, every root part
    nonempty, until the remainder is empty.  The key records the root-part
    classes innermost first; the value counts the distinct cut sequences
    with that key.  So the empty forest gives ``{(): 1}``, and each cut
    (P, R) with R nonempty appends the class of R to every key of P: the
    iterated coproduct.  The returned dict is shared; do not mutate it.
    """
    if forest.size == 0:
        return {(): 1}
    counts: dict = {}
    for _, result in enumerate_cuts(forest):
        root = result.root_part
        if root.size == 0:
            continue
        step = (k0_class(root, ncolors),)
        for head, n in flag_counts(result.pruned, ncolors).items():
            flag = head + step
            counts[flag] = counts.get(flag, 0) + n
    return counts


def enumerate_flags(forest: Forest, k: int, ncolors: int) -> list[tuple]:
    """Multiset of class sequences of k-step iterated cuts of ``forest``.

    The k-step entries of ``flag_counts``, each repeated by its count:
    distinct cut sequences contribute separate (possibly equal) entries.
    """
    if k < 1:
        raise ValueError("flag length k must be at least 1")
    if forest.size == 0:
        raise ValueError("flags are defined for nonempty forests")
    counts = flag_counts(forest, ncolors)
    return [f for f, n in counts.items() if len(f) == k for _ in range(n)]
