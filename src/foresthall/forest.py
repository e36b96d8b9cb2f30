"""Canonical colored rooted forests.

Trees and forests are immutable and hash-consed: constructing one returns
the single object of its isomorphism class, found in an intern table keyed
by the color and child objects of a tree, or by the sorted components of a
forest.  So two colored rooted forests are isomorphic exactly when they are
the same object, and everything downstream indexes its linear algebra by
these canonical representatives: equality and hashing are those of
objects.  ``key`` (color id first, then child lists, compared recursively)
only fixes the total order in which children, components and output are
sorted.  The tables are weak, so an object stays interned exactly as long
as something holds it.

Each object also carries its automorphism count ``aut``, computed once
when the class is first met.

Class vectors (per-color vertex counts, the grading K0+ = N^S) live here
too: ``k0_class`` of a forest, their sum, text forms, every split of a
class into two, and ``word_degree``, the class of a word or composition.
Words and compositions are both tuples of class vectors; every one that a
memo keeps as a key is the one object of its value in ``_WORDS``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import weakref

__all__ = [
    "ColorTable",
    "Tree",
    "Forest",
    "ParseError",
    "parse_forest",
    "format_forest",
    "format_tree",
    "direct_sum",
    "k0_class",
    "add_classes",
    "format_class",
    "parse_class",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    """Malformed input text; ``position`` is the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ColorTable:
    """Ordered, finite set of color names.

    The declaration order is significant: it fixes the coordinate order of
    every class vector produced while the table is in use.
    """

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("at least one color is required")
        for name in names:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid color identifier: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate color names in {names!r}")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def id(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise KeyError(f"unknown color {name!r}") from None

    def name(self, cid: int) -> str:
        return self.names[cid]

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, ColorTable) and self.names == other.names

    def __repr__(self) -> str:
        return f"ColorTable({','.join(self.names)})"


# The tables of trees and forests are weak: an entry leaves once nothing
# else holds its object.  Tuples cannot be weakly referenced, so the table
# of words and compositions is a plain dict that
# ``foresthall.clear_caches()`` empties.
_TREES = weakref.WeakValueDictionary()
_FORESTS = weakref.WeakValueDictionary()
_WORDS: dict = {}  # words and compositions, key and value the same tuple
_KEY = operator.attrgetter("key")


def _aut(parts) -> int:
    """Automorphisms of a sorted run of trees: equal ones are adjacent, and
    a run of m equal trees contributes m! times the m-th power of theirs."""
    count = 1
    for part, group in itertools.groupby(parts):
        m = len(list(group))
        count *= math.factorial(m) * part.aut**m
    return count


class Tree:
    """One colored rooted tree, children canonically sorted at construction.

    ``Tree(color, children)`` returns the one object of its isomorphism
    class.  ``key`` is the nested tuple (color, child keys); tuple
    comparison of keys gives the total order used everywhere for sorting.
    ``aut`` is the order of the tree's automorphism group.
    """

    __slots__ = ("color", "children", "key", "size", "aut", "__weakref__")

    def __new__(cls, color: int, children=()):
        kids = tuple(sorted(children, key=_KEY))
        ident = (color, kids)
        tree = _TREES.get(ident)
        if tree is None:
            if color < 0:
                raise ValueError("color ids are non-negative")
            tree = object.__new__(cls)
            tree.color = color
            tree.children = kids
            tree.key = (color, tuple(t.key for t in kids))
            tree.size = 1 + sum(t.size for t in kids)
            tree.aut = _aut(kids)
            _TREES[ident] = tree
        return tree

    def __reduce__(self):
        return Tree, (self.color, self.children)

    def _plain(self) -> str:
        if not self.children:
            return str(self.color)
        return f"{self.color}[{','.join(c._plain() for c in self.children)}]"

    def __repr__(self) -> str:
        return f"Tree({self._plain()})"


class Forest:
    """A multiset of trees, stored sorted; ``Forest()`` is the empty forest.

    Interned like :class:`Tree`; ``aut`` is the order of the automorphism
    group.
    """

    __slots__ = ("trees", "key", "size", "aut", "__weakref__")

    def __new__(cls, trees=()):
        ts = tuple(sorted(trees, key=_KEY))
        forest = _FORESTS.get(ts)
        if forest is None:
            forest = object.__new__(cls)
            forest.trees = ts
            forest.key = tuple(t.key for t in ts)
            forest.size = sum(t.size for t in ts)
            forest.aut = _aut(ts)
            _FORESTS[ts] = forest
        return forest

    def __reduce__(self):
        return Forest, (self.trees,)

    def __bool__(self) -> bool:
        return bool(self.trees)

    def __repr__(self) -> str:
        if not self.trees:
            return "Forest(0)"
        return f"Forest({'+'.join(t._plain() for t in self.trees)})"


def direct_sum(left: Forest, right: Forest) -> Forest:
    """Disjoint union of two forests (multiset union of their components)."""
    return Forest(left.trees + right.trees)


def k0_class(forest: Forest, ncolors: int) -> tuple[int, ...]:
    """Per-color vertex counts of ``forest`` as a length-``ncolors`` vector.

    This is the complete additive invariant: it is invariant under the
    pruned/root splitting of any admissible cut, and classifies forests up to
    the relation generated by those splittings.
    """
    counts = [0] * ncolors
    stack = list(forest.trees)
    while stack:
        tree = stack.pop()
        if tree.color >= ncolors:
            raise ValueError(
                f"color id {tree.color} out of range for {ncolors} colors"
            )
        counts[tree.color] += 1
        stack.extend(tree.children)
    return tuple(counts)


def add_classes(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def _class_splits(gamma):
    """Every ``(alpha, gamma - alpha)`` with 0 <= alpha <= gamma
    componentwise, alpha in ``itertools.product`` order (zero first)."""
    for alpha in itertools.product(*(range(g + 1) for g in gamma)):
        yield alpha, tuple(g - a for g, a in zip(gamma, alpha))


def word_degree(word, ncolors: int) -> tuple[int, ...]:
    """Class of a word, or of a composition: the sum of its letters."""
    deg = (0,) * ncolors
    for letter in word:
        deg = add_classes(deg, letter)
    return deg


def format_class(alpha) -> str:
    return "(" + ",".join(str(a) for a in alpha) + ")"


def parse_class(text: str, ncolors: int | None = None) -> tuple[int, ...]:
    """Parse a class vector like ``(2,1)``; entries must be non-negative."""
    return _class_at(text, 0, len(text), ncolors)


def _class_at(text: str, start: int, end: int, ncolors, nonzero_in=None):
    """Parse the class vector ``text[start:end]``, refusing the zero class
    when ``nonzero_in`` names where it stands; error positions are offsets
    into ``text``."""
    piece = text[start:end]
    at = start + len(piece) - len(piece.lstrip())
    stripped = piece.strip()
    if not stripped.startswith("(") or not stripped.endswith(")"):
        raise ParseError("class vector must be parenthesized, e.g. (2,1)", at)
    entries = []
    pos = at + 1
    for entry in stripped[1:-1].split(","):
        digits = entry.strip()
        if not digits.isdecimal():
            raise ParseError(
                f"class entries must be non-negative integers, got {digits!r}",
                pos + len(entry) - len(entry.lstrip()),
            )
        entries.append(int(digits))
        pos += len(entry) + 1
    if ncolors is not None and len(entries) != ncolors:
        raise ParseError(
            f"class vector has {len(entries)} entries, expected {ncolors}",
            at,
        )
    if nonzero_in and not any(entries):
        raise ParseError(f"the zero class cannot appear in {nonzero_in}", at)
    return tuple(entries)


# --- forest grammar -------------------------------------------------------
#
#   forest := "0" | tree ("+" tree)*
#   tree   := IDENT | IDENT "[" tree ("," tree)* "]"
#   IDENT  := [A-Za-z_][A-Za-z0-9_]*
#
# Whitespace between tokens is ignored.  Output is always canonical and
# contains no whitespace.

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0\[\],+]")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos, n = 0, len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((match.group(), pos))
        pos = match.end()
    tokens.append(("", n))
    return tokens


def parse_forest(text: str, colors: ColorTable) -> Forest:
    """Parse the forest grammar against ``colors``; returns canonical form."""
    tokens = _tokenize(text)
    if tokens[0][0] == "0":
        token, pos = tokens[1]
        if token:
            raise ParseError("unexpected text after the empty forest '0'", pos)
        return Forest()
    # Iterative, so that depth is bounded by memory alone: the stack holds
    # each open bracket's color and children, above the components so far.
    stack: list[tuple] = [(None, [])]
    i = 0
    while True:
        token, pos = tokens[i]
        if not _IDENT_RE.match(token):
            what = repr(token) if token else "end of input"
            raise ParseError(f"expected a color identifier, got {what}", pos)
        if token not in colors.index:
            raise ParseError(f"unknown color {token!r}", pos)
        i += 1
        if tokens[i][0] == "[":
            stack.append((colors.index[token], []))
            i += 1
            continue
        tree = Tree(colors.index[token])
        while True:
            stack[-1][1].append(tree)
            token, pos = tokens[i]
            i += 1
            if len(stack) == 1:
                if token == "+":
                    break
                if token:
                    raise ParseError(f"unexpected trailing {token!r}", pos)
                return Forest(stack[0][1])
            if token == ",":
                break
            if token != "]":
                raise ParseError("expected ',' or ']'", pos)
            tree = Tree(*stack.pop())


def format_tree(tree: Tree, colors: ColorTable) -> str:
    # Iterative like parse_forest: a stack of trees and punctuation to write.
    out, stack = [], [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.children:
            out.append(colors.name(item.color) + "[")
            stack.append("]")
            for child in reversed(item.children):
                stack += (child, ",")
            stack.pop()  # the comma before the first child
        else:
            out.append(colors.name(item.color))
    return "".join(out)


def format_forest(forest: Forest, colors: ColorTable) -> str:
    """Canonical serialization; inverse of :func:`parse_forest`."""
    if not forest.trees:
        return "0"
    return "+".join(format_tree(t, colors) for t in forest.trees)
