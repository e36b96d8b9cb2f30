"""Quasisymmetric functions graded by color multidegree.

Basis compositions are tuples of nonzero class vectors, written
Z[(2,1),(1,0)]; the empty composition is the unit.  The product is the
quasi-shuffle (interleave or merge adjacent parts), the coproduct is
deconcatenation, and the Kronecker pairing against words of classes makes
this the graded dual of the concatenation side.

rho_t expands a forest over compositions by counting flags: iterated
admissible cuts with every step nonempty.  A flag is a first cut (P, R) with
R nonempty followed by a flag of P, so rho_t(F) is the sum over those cuts
of rho_t(P) with class(R) appended: one recursion over
``cuts.enumerate_cuts``, memoized per forest.  rho_t is the transpose of rho
under the pairing, and a Hopf algebra map from the Connes-Kreimer side
(``forest.direct_sum`` and ``cuts.enumerate_cuts``).

Every composition that the rho_t and quasi-shuffle memos keep as a key is
the one object of its value in ``forest._WORDS``, the intern table that
compositions share with words; ``composition_degree`` is
``forest.word_degree`` itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cuts import enumerate_cuts
from .enumeration import check_size
from .forest import (
    _WORDS,
    Forest,
    ParseError,
    _class_at,
    add_classes,
    format_class,
    k0_class,
    word_degree as composition_degree,
)
from .linear import LinComb, bilinear

__all__ = [
    "quasi_shuffle",
    "deconcat",
    "pair",
    "rho_t",
    "composition_degree",
    "format_composition",
    "parse_composition",
]

Composition = tuple  # tuple of nonzero class vectors


@lru_cache(maxsize=None)
def _shuffle_pair(x: Composition, y: Composition) -> LinComb:
    # Recursion over leading parts: take from the left, take from the right,
    # or merge one part from each side.
    if not x:
        return LinComb.basis(y)
    if not y:
        return LinComb.basis(x)
    intern = _WORDS.setdefault
    terms: dict = {}
    for head, rest in (
        (x[0], _shuffle_pair(x[1:], y)),
        (y[0], _shuffle_pair(x, y[1:])),
        (add_classes(x[0], y[0]), _shuffle_pair(x[1:], y[1:])),
    ):
        for comp, c in rest.terms.items():
            key = (head,) + comp
            key = intern(key, key)
            terms[key] = terms.get(key, 0) + c
    return LinComb._merged(terms)


def quasi_shuffle(f: LinComb, g: LinComb) -> LinComb:
    """Quasi-shuffle product, extended bilinearly; two compositions with
    coefficient 1 multiply to the memoized product itself, not a copy."""
    return bilinear(f, g, _shuffle_pair)


def deconcat(f: LinComb) -> LinComb:
    """Deconcatenation coproduct: a k-part composition splits at each of the
    k+1 positions."""
    # A split (comp[:i], comp[i:]) determines both comp and i.
    splits = {}
    for comp, c in f.terms.items():
        for i in range(len(comp) + 1):
            splits[(comp[:i], comp[i:])] = c
    return LinComb._merged(splits)


def pair(z: LinComb, x: LinComb) -> Fraction:
    """Kronecker pairing: a composition matches exactly the equal word."""
    if len(z.terms) > len(x.terms):
        z, x = x, z
    total = Fraction(0)
    for key, c in z.terms.items():
        other = x.terms.get(key)
        if other is not None:
            total += c * other
    return total


@lru_cache(maxsize=None)
def _rho_t(forest: Forest, ncolors: int) -> LinComb:
    if forest.size == 0:
        return LinComb.basis(())
    intern = _WORDS.setdefault
    counts: dict = {}
    for _, pruned, root in enumerate_cuts(forest):
        if root.size == 0:
            continue
        step = (k0_class(root, ncolors),)
        for head, n in _rho_t(pruned, ncolors).terms.items():
            flag = head + step
            flag = intern(flag, flag)
            counts[flag] = counts.get(flag, 0) + n
    return LinComb._merged(counts)


def rho_t(forest: Forest, ncolors: int, limit: int | None = None) -> LinComb:
    """Expand a W-basis forest over compositions via iterated cuts.

    The coefficient of Z[alpha_1,..,alpha_k] is the number of k-step flags
    of the forest with those root-part classes; the empty forest maps to the
    unit.  Returns the memoized image itself, not a copy.
    """
    check_size("forest", forest.size, limit)
    return _rho_t(forest, ncolors)


def format_composition(comp: Composition) -> str:
    return "Z[" + ",".join(format_class(part) for part in comp) + "]"


def parse_composition(text: str, ncolors: int | None = None) -> Composition:
    """Parse ``Z[(2,1),(1,0)]`` style compositions; ``Z[]`` is the unit."""
    stripped = text.strip()
    start = len(text) - len(text.lstrip())
    if not stripped.startswith("Z[") or not stripped.endswith("]"):
        raise ParseError("composition must look like Z[(2,1),(1,0)]", start)
    start, close = start + 2, text.rindex("]")
    if not text[start:close].strip():
        return ()
    spans, depth = [], 0
    for i in range(start, close):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses in composition", i)
        elif ch == "," and depth == 0:
            spans.append((start, i))
            start = i + 1
    if depth:
        raise ParseError("unbalanced parentheses in composition", close)
    spans.append((start, close))
    return tuple(
        _class_at(text, s, e, ncolors, "a composition") for s, e in spans
    )
