"""An independent count of flags, by dynamic programming over vertex sets.

The cuts of a forest are exactly its parent-closed vertex sets (the root
part of the cut).  So a flag of ``A`` is a chain
``0 = S_0 < S_1 < ... < S_m = V(A)`` of parent-closed vertex sets, and the
coefficient of ``Z[w]`` in ``rho_t(A)``, which equals the coefficient of
``delta_A`` in ``rho(w)``, counts the chains in which ``S_1`` has the class
of the last letter of ``w``, ``S_2 - S_1`` the class of the one before it,
and so on.

This module shares no code with ``foresthall``.  A forest is a pair
``(parents, colors)`` of equal-length lists, ``parents[v]`` being -1 for a
root; :func:`flatten` builds one from any object with ``trees`` whose trees
have ``color`` and ``children``.
"""

from __future__ import annotations

from functools import lru_cache


def flatten(forest) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(parents, colors)`` of a forest object, read through its ``trees``
    and each tree's ``color`` and ``children`` only."""
    parents: list[int] = []
    colors: list[int] = []
    stack = [(tree, -1) for tree in forest.trees]
    while stack:
        tree, parent = stack.pop()
        vertex = len(parents)
        parents.append(parent)
        colors.append(tree.color)
        stack.extend((child, vertex) for child in tree.children)
    return tuple(parents), tuple(colors)


def forest_class(forest, ncolors: int) -> tuple[int, ...]:
    """Vertices of each color in a forest object, read like :func:`flatten`."""
    counts = [0] * ncolors
    stack = list(forest.trees)
    while stack:
        tree = stack.pop()
        counts[tree.color] += 1
        stack.extend(tree.children)
    return tuple(counts)


def vertex_class(colors, ncolors: int) -> tuple[int, ...]:
    counts = [0] * ncolors
    for c in colors:
        counts[c] += 1
    return tuple(counts)


@lru_cache(maxsize=4096)
def _closed_sets(parents: tuple, colors: tuple, ncolors: int):
    """Parent-closed vertex sets as bitmasks, smallest first, each with the
    class vector of its vertices."""
    n = len(parents)
    up = [0 if p < 0 else 1 << p for p in parents]
    closed = []
    for mask in range(1 << n):
        ok = True
        for v in range(n):
            if mask >> v & 1 and up[v] and not mask & up[v]:
                ok = False
                break
        if ok:
            counts = [0] * ncolors
            for v in range(n):
                if mask >> v & 1:
                    counts[colors[v]] += 1
            closed.append((mask, tuple(counts)))
    return tuple(closed)


@lru_cache(maxsize=4096)
def _steps(parents: tuple, colors: tuple, ncolors: int):
    """Pairs ``(S, T, class(T - S))`` of parent-closed sets with ``S < T``."""
    closed = _closed_sets(parents, colors, ncolors)
    out = []
    for t, t_class in closed:
        for s, s_class in closed:
            if s != t and s & t == s:
                out.append(
                    (s, t, tuple(a - b for a, b in zip(t_class, s_class)))
                )
    return tuple(out)


def chain_count(parents, colors, word, ncolors: int) -> int:
    """Chains of parent-closed sets whose steps, from the roots outwards,
    have the classes of ``word`` read from its last letter to its first.

    This is the coefficient of ``Z[word]`` in ``rho_t`` of the forest and
    the coefficient of its ``delta`` in ``rho(word)``.
    """
    steps = _steps(tuple(parents), tuple(colors), ncolors)
    ways = {0: 1}
    for letter in reversed(word):
        letter = tuple(letter)
        nxt: dict[int, int] = {}
        for s, t, step in steps:
            if step == letter and s in ways:
                nxt[t] = nxt.get(t, 0) + ways[s]
        ways = nxt
    return ways.get((1 << len(parents)) - 1, 0)


def total_chains(parents, colors, ncolors: int) -> int:
    """All chains from the empty set to the whole vertex set, which is the
    sum of the coefficients of ``rho_t`` of the forest."""
    closed = _closed_sets(tuple(parents), tuple(colors), ncolors)
    ways: dict[int, int] = {0: 1}
    for t, _ in closed[1:]:
        ways[t] = sum(c for s, c in ways.items() if s & t == s)
    return ways[(1 << len(parents)) - 1]
