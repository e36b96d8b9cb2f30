"""Quasi-shuffle, deconcatenation, the pairing, and the flag expansion."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foresthall.enumeration import SizeLimitError, forests_of_class
from foresthall.forest import ColorTable, Forest, ParseError, parse_forest
from foresthall.linear import LinComb
from foresthall.nsym import rho
from foresthall.qsym import (
    _shuffle_pair,
    composition_degree,
    deconcat,
    format_composition,
    pair,
    parse_composition,
    quasi_shuffle,
    rho_t,
)

AB = ColorTable(("a", "b"))


def _z(*parts):
    return LinComb.basis(tuple(parts))


def _named(elem):
    return {format_composition(k): c for k, c in elem.terms.items()}


def test_one_part_times_one_part():
    alpha, beta = (1, 0), (0, 1)
    got = quasi_shuffle(_z(alpha), _z(beta))
    assert got == _z(alpha, beta) + _z(beta, alpha) + _z((1, 1))


def test_equal_parts_merge_with_coefficient_two():
    alpha = (1, 0)
    got = quasi_shuffle(_z(alpha), _z(alpha))
    assert got == 2 * _z(alpha, alpha) + _z((2, 0))


def test_worked_example_one_against_two():
    # Z(1,0) against Z((0,1),(2,0)): five compositions, coefficient one
    got = quasi_shuffle(_z((1, 0)), _z((0, 1), (2, 0)))
    assert _named(got) == {
        "Z[(1,0),(0,1),(2,0)]": 1,
        "Z[(0,1),(1,0),(2,0)]": 1,
        "Z[(0,1),(2,0),(1,0)]": 1,
        "Z[(1,1),(2,0)]": 1,
        "Z[(0,1),(3,0)]": 1,
    }


def test_unit_composition():
    u = _z((1, 1), (2, 0))
    assert quasi_shuffle(_z(), u) == u
    assert quasi_shuffle(u, _z()) == u


_part = st.tuples(
    st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)
).filter(any)
_comp = st.lists(_part, max_size=3).map(tuple)


@given(_comp, _comp)
def test_quasi_shuffle_commutes(x, y):
    assert quasi_shuffle(_z(*x), _z(*y)) == quasi_shuffle(_z(*y), _z(*x))


@given(_comp, _comp, _comp)
def test_quasi_shuffle_associates(x, y, z):
    lhs = quasi_shuffle(quasi_shuffle(_z(*x), _z(*y)), _z(*z))
    rhs = quasi_shuffle(_z(*x), quasi_shuffle(_z(*y), _z(*z)))
    assert lhs == rhs


@given(_comp, _comp)
def test_quasi_shuffle_is_degree_homogeneous(x, y):
    total = composition_degree(x + y, 2)
    for comp in quasi_shuffle(_z(*x), _z(*y)).terms:
        assert composition_degree(comp, 2) == total


def test_quasi_shuffle_of_two_compositions_is_the_memoized_product():
    x, y = ((1, 0),), ((0, 1), (1, 1))
    assert quasi_shuffle(_z(*x), _z(*y)) is _shuffle_pair(x, y)
    doubled = quasi_shuffle(2 * _z(*x), _z(*y))
    assert doubled is not _shuffle_pair(x, y)
    assert doubled == 2 * _shuffle_pair(x, y)


def test_deconcat():
    got = deconcat(_z((1, 0), (0, 1)))
    expect = LinComb(
        [
            (((), ((1, 0), (0, 1))), 1),
            ((((1, 0),), ((0, 1),)), 1),
            ((((1, 0), (0, 1)), ()), 1),
        ]
    )
    assert got == expect
    assert deconcat(_z()) == LinComb.basis(((), ()))
    assert len(deconcat(_z((1, 0), (1, 0), (1, 0))).terms) == 4
    half = deconcat(Fraction(1, 2) * _z((1, 0)))
    assert half.terms == {
        ((), ((1, 0),)): Fraction(1, 2),
        (((1, 0),), ()): Fraction(1, 2),
    }


def test_deconcat_is_coassociative():
    comp = ((1, 0), (0, 1), (2, 0))
    elem = deconcat(_z(*comp))
    left, right = [], []
    for (x, y), c in elem.terms.items():
        for (u, v), d in deconcat(_z(*x)).terms.items():
            left.append(((u, v, y), c * d))
        for (u, v), d in deconcat(_z(*y)).terms.items():
            right.append(((x, u, v), c * d))
    assert LinComb(left) == LinComb(right)


def test_pair_is_kronecker():
    word = ((1, 1), (1, 0))
    assert pair(_z(*word), LinComb.basis(word)) == 1
    assert pair(_z((1, 0), (1, 1)), LinComb.basis(word)) == 0
    assert pair(_z(), LinComb.basis(())) == 1
    mixed = 2 * _z((1, 0)) + Fraction(1, 3) * _z((0, 1))
    target = 3 * LinComb.basis(((0, 1),))
    assert pair(mixed, target) == 1
    assert isinstance(pair(mixed, target), Fraction)


def test_rho_t_trivial_cases():
    assert rho_t(Forest(), 2) == _z()
    assert rho_t(parse_forest("a", AB), 2) == _z((1, 0))


def test_rho_t_two_equal_vertices():
    got = rho_t(parse_forest("a+a", ColorTable(("a",))), 1)
    assert got == _z((2,)) + 2 * _z((1,), (1,))


def test_rho_t_worked_example():
    forest = parse_forest("a[b,a]", AB)
    got = rho_t(forest, 2)
    assert rho_t(forest, 2) is got  # the memoized image, not a copy
    assert _named(got) == {
        "Z[(2,1)]": 1,
        "Z[(0,1),(2,0)]": 1,
        "Z[(1,0),(1,1)]": 1,
        "Z[(1,1),(1,0)]": 1,
        "Z[(1,0),(0,1),(1,0)]": 1,
        "Z[(0,1),(1,0),(1,0)]": 1,
    }


def test_rho_t_size_guard():
    with pytest.raises(SizeLimitError):
        rho_t(parse_forest("a[a]", AB), 2, limit=1)


def test_rho_t_is_transpose_of_rho():
    # <rho_t(A), word> = coeff of delta_A in rho(word), small universe
    words = [
        (),
        ((1, 0),),
        ((0, 1),),
        ((1, 1),),
        ((2, 0),),
        ((1, 0), (1, 0)),
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((1, 1), (1, 0)),
        ((1, 0), (1, 0), (1, 0)),
    ]
    universe = [
        f
        for total in range(4)
        for i in range(total + 1)
        for f in forests_of_class((i, total - i))
    ]
    for forest in universe:
        expansion = rho_t(forest, 2)
        for word in words:
            assert pair(expansion, LinComb.basis(word)) == rho(
                LinComb.basis(word)
            ).coeff(forest), (forest, word)


def test_composition_text_forms():
    assert format_composition(()) == "Z[]"
    assert format_composition(((2, 1), (1, 0))) == "Z[(2,1),(1,0)]"
    assert parse_composition("Z[]") == ()
    assert parse_composition("Z[(2,1),(1,0)]", 2) == ((2, 1), (1, 0))
    assert parse_composition(" Z[ (2,1) , (1,0) ] ", 2) == ((2, 1), (1, 0))
    for bad in ["", "Z[", "[(1,0)]", "Z[(1,0]", "Z[(0,0)]", "Z[(1,0)),(1,0)]"]:
        with pytest.raises(ParseError):
            parse_composition(bad, 2)
    with pytest.raises(ParseError):
        parse_composition("Z[(1,0)]", 3)
