"""Generation of the forests with a prescribed class vector.

The orderly generator is the only route: components are chosen
largest-first in the canonical order, so no post-deduplication is ever
needed.  The ``counts`` suite of :mod:`.verify` counts the same forests
independently, without generating them, and requires the two to agree
class by class.
"""

from __future__ import annotations

from functools import cache

from .forest import Forest, Tree, _class_splits, format_class

__all__ = [
    "DEFAULT_SIZE_LIMIT",
    "SizeLimitError",
    "forests_of_class",
    "trees_of_class",
]

DEFAULT_SIZE_LIMIT = 12


class SizeLimitError(ValueError):
    """A request exceeded the configured vertex budget."""


def check_size(subject: str, total: int, limit: int | None) -> None:
    """Refuse ``total`` vertices over ``limit`` (None: DEFAULT_SIZE_LIMIT).

    The one size guard of the package: every entry point that takes a limit
    passes through here, so all refusals read the same way.
    """
    bound = DEFAULT_SIZE_LIMIT if limit is None else limit
    if total > bound:
        raise SizeLimitError(
            f"{subject} has {total} vertices, over the limit of {bound}"
        )


def _check_class(alpha: tuple[int, ...], limit: int | None) -> None:
    shown = format_class(alpha)
    if not alpha:
        raise ValueError("class vector needs at least one color")
    if any(a < 0 for a in alpha):
        raise ValueError(f"class entries must be non-negative: {shown}")
    check_size(f"class {shown}", sum(alpha), limit)


def _decrement(alpha: tuple[int, ...], s: int) -> tuple[int, ...]:
    return alpha[:s] + (alpha[s] - 1,) + alpha[s + 1 :]


@cache
def _trees(alpha: tuple[int, ...]) -> tuple[Tree, ...]:
    """All trees of class alpha: a root of some color over a smaller forest."""
    out = []
    for s, count in enumerate(alpha):
        if count:
            for forest in _forests_bounded(_decrement(alpha, s), None):
                out.append(Tree(s, forest.trees))
    out.sort(key=lambda t: t.key)
    return tuple(out)


@cache
def _forests_bounded(alpha: tuple[int, ...], bound) -> tuple[Forest, ...]:
    """Forests of class alpha whose components all have key <= bound.

    The recursion picks the maximal component first; requiring the rest to
    stay <= its key makes every multiset appear exactly once.
    """
    if not any(alpha):
        return (Forest(),)
    out = []
    for beta, rest_class in _class_splits(alpha):
        for tree in _trees(beta):  # none when beta is zero
            if bound is not None and tree.key > bound:
                continue
            for rest in _forests_bounded(rest_class, tree.key):
                out.append(Forest((tree,) + rest.trees))
    out.sort(key=lambda f: f.key)
    return tuple(out)


def forests_of_class(alpha, limit: int | None = None) -> list[Forest]:
    """All non-isomorphic forests whose per-color vertex counts equal alpha.

    Deterministic order (sorted canonical keys).  Raises SizeLimitError when
    sum(alpha) exceeds ``limit`` (default 12).
    """
    alpha = tuple(alpha)
    _check_class(alpha, limit)
    return list(_forests_bounded(alpha, None))


def trees_of_class(alpha, limit: int | None = None) -> list[Tree]:
    """All non-isomorphic trees of class alpha, in canonical order.

    The public tree-level enumerator: :func:`forests_of_class` builds its
    forests as multisets of these trees.
    """
    alpha = tuple(alpha)
    _check_class(alpha, limit)
    return list(_trees(alpha))
