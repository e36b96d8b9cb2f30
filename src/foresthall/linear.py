"""Sparse linear combinations with exact rational coefficients.

Coefficients are stored as ``int`` where integral and as ``Fraction``
otherwise; ``LinComb.coeff`` always returns a ``Fraction``.  Most structure
constants here are integers, and int arithmetic is far cheaper than
building ``Fraction`` objects.

A map is built from its values on basis keys: by ``bilinear`` or ``extend``
where keys can repeat, each accumulating into one dict, and as one dict
wrapped by ``LinComb._merged`` where its keys are distinct by construction.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["LinComb", "bilinear", "extend", "tensor", "tensor_mul"]

_SCALARS = (int, Fraction)


def _normalize(data: dict) -> dict:
    """Drop the zero values of ``data`` and store the others as exact
    rationals, integral ones as ``int``, in place."""
    stale = []
    for key, c in data.items():
        if not c or type(c) is not int:
            stale.append(key)
    for key in stale:
        value = Fraction(data[key])
        if value:
            data[key] = value.numerator if value.denominator == 1 else value
        else:
            del data[key]
    return data


class LinComb:
    """Finitely supported map from hashable basis keys to exact rationals.

    A coefficient is stored as an ``int`` when it is integral and as a
    ``Fraction`` otherwise, so each value has one representation.  Zero
    coefficients are never stored, so equality is plain dict equality.
    ``coeff`` always returns a ``Fraction``.  Instances are treated as
    immutable; all arithmetic returns new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            if type(coeff) not in _SCALARS:
                coeff = Fraction(coeff)
            data[key] = data.get(key, 0) + coeff
        self.terms = _normalize(data)

    @classmethod
    def _merged(cls, data: dict) -> "LinComb":
        """Wrap ``data``, whose keys are already merged; the dict is taken
        over, not copied, and normalized like the constructor's."""
        out = cls.__new__(cls)
        out.terms = _normalize(data)
        return out

    @classmethod
    def basis(cls, key, coeff=1) -> "LinComb":
        return cls._merged({key: coeff})

    def coeff(self, key) -> Fraction:
        return Fraction(self.terms.get(key, 0))

    def items(self):
        return self.terms.items()

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        merged = list(self.terms.items())
        merged.extend(other.terms.items())
        return LinComb(merged)

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "LinComb":
        return LinComb._merged({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar) -> "LinComb":
        # Keeps self's keys; _normalize drops the zeros of a zero scalar.
        if not isinstance(scalar, _SCALARS):
            return NotImplemented
        return LinComb._merged({k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "LinComb(0)"
        inner = ", ".join(f"{k!r}: {c}" for k, c in self.terms.items())
        return f"LinComb({{{inner}}})"


def bilinear(f: LinComb, g: LinComb, basis_mul) -> LinComb:
    """Extend a basis-level product bilinearly; ``basis_mul(a, b) -> LinComb``."""
    out: dict = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            scale = ca * cb
            for k, c in basis_mul(a, b).terms.items():
                out[k] = out.get(k, 0) + scale * c
    return LinComb._merged(out)


def extend(f: LinComb, image) -> LinComb:
    """Extend a basis-level map linearly; ``image(key) -> LinComb``.  A
    basis element with coefficient 1 maps to its image itself, not a copy."""
    if len(f.terms) == 1:
        ((key, c),) = f.terms.items()
        if c == 1:
            return image(key)
    out: dict = {}
    for key, c in f.terms.items():
        for k, v in image(key).terms.items():
            out[k] = out.get(k, 0) + c * v
    return LinComb._merged(out)


def tensor(f: LinComb, g: LinComb) -> LinComb:
    """Simple tensor f (x) g as a combination keyed by (left, right) pairs."""
    right = g.terms.items()
    return LinComb._merged(
        {(a, b): ca * cb for a, ca in f.terms.items() for b, cb in right}
    )


def tensor_mul(t1: LinComb, t2: LinComb, left_mul, right_mul) -> LinComb:
    """Componentwise product of two pair-keyed combinations.

    ``left_mul``/``right_mul`` are basis-level products returning LinComb.
    """
    def pair_mul(p, q):
        return tensor(left_mul(p[0], q[0]), right_mul(p[1], q[1]))

    return bilinear(t1, t2, pair_mul)
