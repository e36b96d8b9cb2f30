"""Noncommutative symmetric functions graded by color multidegree.

Basis words are tuples of nonzero class vectors; the empty word is the unit.
The product is concatenation.  The coproduct splits each letter
componentwise, a zero part contributing the unit on its side, so the
generator on class gamma is primitive-like: it splits into all ordered pairs
of classes summing to gamma.

rho is the algebra map sending the one-letter word on alpha to the
characteristic function kappa_alpha of the Hall algebra; js collects the
generators of a fixed total weight under a per-color weight assignment.

The word coproduct is not memoized (its words are seldom met twice), but
every word in one of its keys is the one object of its value in
``forest._WORDS``, the intern table that the compositions of ``qsym`` share.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .enumeration import SizeLimitError, check_size
from .forest import (
    _WORDS,
    Forest,
    _class_at,
    _class_splits,
    _classes_of_weight,
    format_class,
    word_degree,
)
from .hall import hall_mul, kappa
from .linear import LinComb, bilinear, extend

__all__ = [
    "nsym_mul",
    "nsym_comul",
    "rho",
    "js",
    "rho_js",
    "word_degree",
    "format_word",
    "parse_word",
]

Word = tuple  # tuple of nonzero class vectors


def nsym_mul(f: LinComb, g: LinComb) -> LinComb:
    """Concatenation product, extended bilinearly."""
    return bilinear(f, g, lambda u, v: LinComb.basis(u + v))


def _word_comul(word: Word) -> LinComb:
    intern = _WORDS.setdefault
    pairs = LinComb.basis(((), ()))
    for gamma in word:
        step = []
        for (lw, rw), c in pairs.terms.items():
            for alpha, beta in _class_splits(gamma):
                nl = lw + (alpha,) if any(alpha) else lw
                nr = rw + (beta,) if any(beta) else rw
                step.append(((intern(nl, nl), intern(nr, nr)), c))
        pairs = LinComb(step)
    return pairs


def nsym_comul(f: LinComb) -> LinComb:
    """Coproduct splitting every letter componentwise (zero parts drop out)."""
    return extend(f, _word_comul)


@lru_cache(maxsize=None)
def _rho_word(word: Word) -> LinComb:
    # rho has checked the word's size against its bound; a letter's own
    # size is a bound it always meets, and keeps the memo keyed by word.
    if not word:
        return LinComb.basis(Forest())
    letter = word[-1]
    image = kappa(letter, limit=sum(letter))
    if len(word) == 1:
        return image
    return hall_mul(_rho_word(word[:-1]), image)


def rho(f: LinComb, limit: int | None = None) -> LinComb:
    """Algebra map into the Hall algebra: the one-letter word on alpha goes
    to kappa_alpha, concatenation goes to the convolution product."""
    for word in f.terms:
        check_size("word", sum(sum(letter) for letter in word), limit)
    return extend(f, _rho_word)


# The largest smallest weight (after dividing out the gcd) for which
# _weight_may_be_reachable builds its table of residues.
_RESIDUE_BUDGET = 100_000


def _weight_may_be_reachable(n: int, weights: tuple[int, ...]) -> bool:
    """False when no class has total weight ``n`` (coin-change reachability).

    After dividing out the gcd, a shortest path over the residues modulo the
    smallest weight ``a``: ``least[r]`` becomes the smallest reachable weight
    congruent to ``r``, and ``n`` is reachable when ``least[n % a] <= n``.
    O(a * len(weights)) time and O(a) space, whatever ``n`` is.  When ``a``
    is over _RESIDUE_BUDGET the table is not built and the answer is True.
    """
    g = math.gcd(*weights)
    if n % g:
        return False
    n //= g
    coins = sorted({w // g for w in weights})
    a = coins[0]
    # Schur's bound: with coprime coins a < ... < z, every amount of at
    # least (a - 1)(z - 1) is reachable.
    if n >= (a - 1) * (coins[-1] - 1) or a > _RESIDUE_BUDGET:
        return True
    least = [0] + [math.inf] * (a - 1)
    for coin in coins[1:]:
        step = coin % a
        cycles = math.gcd(a, step)
        # Adding the coin walks the residues start, start + step, ... around
        # a cycle of length a / cycles; two rounds from any start relax it.
        for r in range(cycles):
            for _ in range(2 * a // cycles):
                nxt = (r + step) % a
                least[nxt] = min(least[nxt], least[r] + coin)
                r = nxt
    return least[n % a] <= n


def js(n: int, weights, limit: int | None = None) -> LinComb:
    """Sum of the one-letter words over all classes of total weight ``n``.

    ``weights`` assigns a positive integer to each color; the weight of a
    class is the weighted vertex count.  ``js(0, ...)`` is the unit.  Raises
    SizeLimitError when some class of weight ``n`` has more than ``limit``
    vertices (default 12).  A weight over ``limit * max(weights)`` is also
    refused without looking for a class when the smallest weight, after
    dividing out the gcd, is over 100,000.
    """
    weights = tuple(weights)
    if not weights:
        raise ValueError("at least one color weight is required")
    if any(w < 1 or w != int(w) for w in weights):
        raise ValueError(f"weights must be positive integers: {weights}")
    weights = tuple(map(int, weights))
    if n < 0:
        raise ValueError("weight must be non-negative")
    # A class of weight n has at least n / max(weights) vertices; refusing
    # on that bound first keeps the enumeration below small.  A weight that
    # no class has is not refused: js is then zero.
    fewest = -(-n // max(weights))
    try:
        check_size(f"the smallest class of weight {n}", fewest, limit)
    except SizeLimitError:
        if _weight_may_be_reachable(n, weights):
            raise
        return LinComb()
    terms = {}  # each class is met once
    for alpha in _classes_of_weight(n, weights):
        check_size(f"class {format_class(alpha)}", sum(alpha), limit)
        terms[(alpha,) if any(alpha) else ()] = 1
    return LinComb._merged(terms)


def rho_js(n: int, weights, limit: int | None = None) -> LinComb:
    """rho applied to js: the sum of delta_A over all forests whose class has
    total weight ``n``."""
    return rho(js(n, weights, limit), limit)


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return "|".join(format_class(letter) for letter in word)


def parse_word(text: str, ncolors: int | None = None) -> Word:
    """Parse ``(1,1)|(1,0)`` style words; ``1`` is the empty word."""
    if text.strip() == "1":
        return ()
    letters, start = [], 0
    for piece in text.split("|"):
        end = start + len(piece)
        letters.append(_class_at(text, start, end, ncolors, "a word"))
        start = end + 1
    return tuple(letters)
