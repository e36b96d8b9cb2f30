"""Seeded inputs for the benchmark, written as text in the program's notation.

Nothing here imports ``foresthall``: the program receives only the text,
through ``parse_word`` and ``parse_forest``, so the inputs never depend on
the order in which the program happens to enumerate anything.

* Words of class ``(3,4)`` are vector compositions of ``(3,4)``: sequences
  of nonzero class vectors summing to it.  The list is drawn once, from a
  fixed stream, with each length represented in proportion to its share of
  all 768 words, and it does not depend on the seed: the cost of a word is
  heavy-tailed and, through the interpreter's cyclic garbage collector,
  depends on the order in which the memos grow, so a seeded sample or order
  would move the figures more than any bound could absorb.
* Forests of class ``(4,4)`` are parent arrays over 8 vertices with four
  vertices colored ``a`` and four ``b``.  The uncolored shapes are uniform
  random labelled rooted forests (the Pruefer code of a random tree on 9
  vertices, with vertex 0 removed) drawn from one fixed stream, so the cost
  of a sample, which follows its shapes, does not change with the seed.  The
  seed draws each forest's coloring and the order in which its vertices, and
  so its children, are written.
"""

from __future__ import annotations

import heapq
import itertools
import random
from functools import lru_cache

CLASS = (4, 4)
WORD_CLASS = (3, 4)
COLORS = ("a", "b")
WORD_STREAM = "words"
SHAPE_STREAM = "forest-shapes"


@lru_cache(maxsize=None)
def compositions(gamma: tuple[int, ...]) -> tuple:
    """Every sequence of nonzero class vectors summing to ``gamma``, sorted."""
    if not any(gamma):
        return ((),)
    out = []
    for head in itertools.product(*(range(g + 1) for g in gamma)):
        if any(head):
            rest = tuple(g - h for g, h in zip(gamma, head))
            out.extend((head,) + tail for tail in compositions(rest))
    return tuple(sorted(out))


def format_letter(letter) -> str:
    return "(" + ",".join(str(x) for x in letter) + ")"


def format_word(word) -> str:
    return "|".join(format_letter(letter) for letter in word)


def fixed_words(count: int) -> list[tuple]:
    """``count`` distinct words of class ``WORD_CLASS``, one fixed stream.

    Each length gets its share of ``count`` (largest remainders first), in
    proportion to how many words of that length there are.
    """
    rng = random.Random(WORD_STREAM)
    by_length: dict[int, list] = {}
    for word in compositions(WORD_CLASS):
        by_length.setdefault(len(word), []).append(word)
    total = sum(len(group) for group in by_length.values())
    shares = {n: count * len(g) / total for n, g in by_length.items()}
    quota = {n: int(share) for n, share in shares.items()}
    for n in sorted(shares, key=lambda n: quota[n] - shares[n])[
        : count - sum(quota.values())
    ]:
        quota[n] += 1
    words = [
        word
        for n in sorted(by_length)
        for word in rng.sample(by_length[n], quota[n])
    ]
    rng.shuffle(words)
    return words


def random_shape(rng: random.Random, n: int) -> list[int]:
    """Parent array of a uniform random labelled rooted forest on ``n``
    vertices: a random tree on ``n + 1`` vertices with vertex 0 removed."""
    if n == 1:
        return [-1]
    code = [rng.randrange(n + 1) for _ in range(n - 1)]
    degree = [1] * (n + 1)
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    neighbours: list[list[int]] = [[] for _ in range(n + 1)]
    for x in code:
        leaf = heapq.heappop(leaves)
        neighbours[leaf].append(x)
        neighbours[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    neighbours[u].append(v)
    neighbours[v].append(u)
    parent = {0: -1}
    order = [0]
    for x in order:
        for y in neighbours[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    return [-1 if parent[v] == 0 else parent[v] - 1 for v in range(1, n + 1)]


def color_and_relabel(parents, gamma, rng: random.Random):
    """A random coloring of class ``gamma`` and a random vertex order."""
    n = len(parents)
    colors = [c for c, count in enumerate(gamma) for _ in range(count)]
    rng.shuffle(colors)
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = [0] * n
    for v, p in enumerate(parents):
        relabelled[perm[v]] = -1 if p < 0 else perm[p]
    return relabelled, colors


def random_forests(seed: int, count: int):
    """``count`` forests of class ``CLASS`` as ``(parents, colors)`` pairs."""
    shapes = random.Random(SHAPE_STREAM)
    rng = random.Random(f"forests:{seed}")
    return [
        color_and_relabel(random_shape(shapes, sum(CLASS)), CLASS, rng)
        for _ in range(count)
    ]


def format_parent_forest(parents, colors) -> str:
    """Forest-grammar text of a parent array; children in vertex order."""
    children: list[list[int]] = [[] for _ in parents]
    roots = []
    for v, p in enumerate(parents):
        (roots if p < 0 else children[p]).append(v)

    def tree(v: int) -> str:
        name = COLORS[colors[v]]
        if not children[v]:
            return name
        return name + "[" + ",".join(tree(c) for c in children[v]) + "]"

    return "+".join(tree(r) for r in roots)
