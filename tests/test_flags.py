"""The flag counts of rho_t checked against the per-length flag walk.

The oracle below is the direct reading of the definition: for each length k
it walks every sequence of k cuts, re-enumerating the cuts of each pruned
remainder, and yields one entry per cut sequence.  The library instead
computes all lengths at once by a memoized recursion over the first cut.
Both sides agree on every forest of a few small universes.
"""

import itertools
from collections import Counter
from functools import lru_cache

from foresthall.cuts import enumerate_cuts
from foresthall.enumeration import forests_of_class
from foresthall.forest import k0_class
from foresthall.qsym import rho_t

# (colors, max vertices): 1,397 forests in all, the empty forest included.
UNIVERSES = ((1, 7), (2, 5), (3, 4))


# enumerate_cuts keeps no memo, and the walk revisits every remainder once
# per flag length.
@lru_cache(maxsize=None)
def _cuts(forest):
    return enumerate_cuts(forest)


def _walk_flags(forest, k, ncolors):
    """Class sequences of k-step iterated cuts, one entry per cut sequence,
    innermost root part first."""
    if k == 0:
        if forest.size == 0:
            yield ()
        return
    if forest.size == 0:
        return
    for _, pruned, root in _cuts(forest):
        if root.size == 0:
            continue
        step = k0_class(root, ncolors)
        for head in _walk_flags(pruned, k - 1, ncolors):
            yield head + (step,)


def _universe(ncolors, max_vertices):
    for total in range(max_vertices + 1):
        for alpha in itertools.product(range(total + 1), repeat=ncolors):
            if sum(alpha) == total:
                yield from forests_of_class(alpha)


def test_universe_sizes():
    assert sum(len(list(_universe(*u))) for u in UNIVERSES) == 1397


def test_flags_and_rho_t_match_the_walk_exhaustively():
    for ncolors, max_vertices in UNIVERSES:
        for forest in _universe(ncolors, max_vertices):
            counts = rho_t(forest, ncolors).terms
            expected = Counter()
            for k in range(1, forest.size + 1):
                walked = Counter(_walk_flags(forest, k, ncolors))
                of_length_k = {f: n for f, n in counts.items() if len(f) == k}
                assert of_length_k == walked, (forest, k)
                expected.update(walked)
            if forest.size == 0:
                expected[()] = 1
            assert counts == dict(expected), forest
