"""Admissible cuts of canonical forests.

A cut of a tree either selects a set of edges meeting every root-to-leaf path
at most once, or is the formal full cut that prunes the whole tree.  Removing
the selected edges splits the tree into the pruned forest (the subtrees that
fall away from the root) and the root part; the full cut sends everything to
the pruned side, the empty edge set sends everything to the root side.  Cuts
of a forest choose one cut per component, independently.

A cut of one tree is an edge mask: bit i cuts the edge above the vertex of
preorder index i, so bit 0, the edge above the root, is the full cut.  The
enumeration order is deterministic, and repeat (pruned, root) pairs coming
from genuinely different cuts stay distinguishable.

The cuts of each tree are memoized per interned tree (``_tree_cuts``); the
cut list of a forest is rebuilt on every call to ``enumerate_cuts``.  These
cuts are the Connes-Kreimer coproduct: rho_t (in ``qsym``) counts the
iterated cuts, and the hall-oracle suite counts cuts by (pruned, root) to
cross-check the Hall product, which never reads them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .forest import Forest, Tree

__all__ = ["enumerate_cuts"]


@lru_cache(maxsize=None)
def _tree_cuts(tree: Tree) -> tuple:
    """Every cut of ``tree`` as (edge mask, pruned trees, kept tree or None).

    Each edge below the root is either cut (its whole subtree is pruned) or
    recursed into, which is exactly the once-per-path condition: a child's
    options are its own cuts shifted to its preorder offset, its full cut
    first.  The full cut of ``tree``, the only one that keeps nothing, comes
    last.
    """
    slots = []
    offset = 1
    for child in tree.children:
        *inner, full = _tree_cuts(child)
        slots.append([(m << offset, p, k) for m, p, k in (full, *inner)])
        offset += child.size
    cuts = [
        (
            sum(mask for mask, _, _ in combo),
            tuple(itertools.chain.from_iterable(p for _, p, _ in combo)),
            Tree(tree.color, [k for _, _, k in combo if k is not None]),
        )
        for combo in itertools.product(*slots)
    ]
    cuts.append((1, (tree,), None))
    return tuple(cuts)


def enumerate_cuts(forest: Forest) -> tuple:
    """Every admissible cut of ``forest`` as (masks, pruned, root) triples.

    ``masks`` holds one edge mask per component, in component order.  The
    order is deterministic.  The list is rebuilt on every call: callers
    that need an aggregate memoize that instead.
    """
    out = []
    for combo in itertools.product(*map(_tree_cuts, forest.trees)):
        masks = tuple(mask for mask, _, _ in combo)
        pruned = Forest(itertools.chain.from_iterable(p for _, p, _ in combo))
        root = Forest(k for _, _, k in combo if k is not None)
        out.append((masks, pruned, root))
    return tuple(out)

