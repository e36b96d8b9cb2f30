"""Concatenation algebra on class words, rho, and the weight sums js."""

import itertools

import pytest

from foresthall.enumeration import SizeLimitError
from foresthall.forest import (
    ColorTable,
    Forest,
    ParseError,
    format_forest,
    k0_class,
)
from foresthall.hall import counit, delta, hall_mul, kappa
from foresthall.linear import LinComb, tensor
from foresthall.nsym import (
    _weight_may_be_reachable,
    format_word,
    js,
    nsym_comul,
    nsym_mul,
    parse_word,
    rho,
    rho_js,
    word_degree,
)

AB = ColorTable(("a", "b"))


def _w(*letters):
    return LinComb.basis(tuple(letters))


def _small_words(max_total):
    letters = [
        (i, t - i) for t in range(1, max_total + 1) for i in range(t + 1)
    ]
    words = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for word in frontier:
            used = sum(sum(l) for l in word)
            for letter in letters:
                if used + sum(letter) <= max_total:
                    nxt.append(word + (letter,))
        words.extend(nxt)
        frontier = nxt
    return words


def test_mul_is_concatenation():
    prod = nsym_mul(_w((1, 0)), _w((0, 1), (2, 0)))
    assert prod == _w((1, 0), (0, 1), (2, 0))
    assert nsym_mul(_w(), _w((1, 1))) == _w((1, 1))
    assert nsym_mul(2 * _w((1, 0)), 3 * _w((0, 1))) == 6 * _w((1, 0), (0, 1))
    # Two products of words concatenate to the same word.
    prod = nsym_mul(
        _w((1, 0)) + _w((1, 0), (0, 1)), _w((0, 1), (1, 1)) + _w((1, 1))
    )
    assert prod.terms == {
        ((1, 0), (0, 1), (1, 1)): 2,
        ((1, 0), (1, 1)): 1,
        ((1, 0), (0, 1), (0, 1), (1, 1)): 1,
    }


def test_mul_is_associative_small():
    words = [(), ((1, 0),), ((0, 1), (1, 0))]
    for u, v, w in itertools.product(words, repeat=3):
        lhs = nsym_mul(nsym_mul(_w(*u), _w(*v)), _w(*w))
        rhs = nsym_mul(_w(*u), nsym_mul(_w(*v), _w(*w)))
        assert lhs == rhs


def test_comul_of_generator_splits_the_class():
    got = nsym_comul(_w((1, 1)))
    expect = LinComb(
        [
            (((), ((1, 1),)), 1),
            ((((1, 0),), ((0, 1),)), 1),
            ((((0, 1),), ((1, 0),)), 1),
            ((((1, 1),), ()), 1),
        ]
    )
    assert got == expect


def test_comul_repeated_letter_coefficient_two():
    alpha = (1, 0)
    got = nsym_comul(_w(alpha, alpha))
    assert got.coeff(((alpha,), (alpha,))) == 2
    assert got.coeff(((), (alpha, alpha))) == 1
    assert got.coeff(((alpha, alpha), ())) == 1


def test_comul_of_unit():
    assert nsym_comul(_w()) == LinComb.basis(((), ()))


def test_comul_is_an_algebra_map():
    words = [(), ((1, 0),), ((0, 1),), ((1, 1), (1, 0))]
    for u in words:
        for v in words:
            lhs = nsym_comul(nsym_mul(_w(*u), _w(*v)))
            rhs_terms = []
            for (x1, y1), c1 in nsym_comul(_w(*u)).terms.items():
                for (x2, y2), c2 in nsym_comul(_w(*v)).terms.items():
                    rhs_terms.append(((x1 + x2, y1 + y2), c1 * c2))
            assert lhs == LinComb(rhs_terms)


def test_comul_is_coassociative_small():
    for word in _small_words(3):
        left, right = [], []
        elem = nsym_comul(LinComb.basis(word))
        for (x, y), c in elem.terms.items():
            for (u, v), d in nsym_comul(LinComb.basis(x)).terms.items():
                left.append(((u, v, y), c * d))
            for (u, v), d in nsym_comul(LinComb.basis(y)).terms.items():
                right.append(((x, u, v), c * d))
        assert LinComb(left) == LinComb(right)


def test_rho_of_unit_and_generator():
    assert rho(_w()) == delta(Forest())
    assert rho(_w((1, 1))) == kappa((1, 1))


def test_rho_is_an_algebra_map():
    for u in _small_words(2):
        for v in _small_words(2):
            if sum(sum(l) for l in u + v) > 4:
                continue
            assert rho(nsym_mul(_w(*u), _w(*v))) == hall_mul(
                rho(_w(*u)), rho(_w(*v))
            )


def test_rho_two_letter_word():
    got = rho(_w((1, 0), (1, 0)))
    assert got == hall_mul(kappa((1, 0)), kappa((1, 0)))
    named = {format_forest(k, AB): c for k, c in got.terms.items()}
    assert named == {"a+a": 2, "a[a]": 1}


def test_rho_is_graded():
    # every forest in rho(u) lands in the class the word sums to
    for u in _small_words(3):
        if sum(sum(letter) for letter in u) > 4:
            continue
        expected = word_degree(u, 2)
        for forest in rho(_w(*u)).terms:
            assert k0_class(forest, 2) == expected, u


def test_counit_of_rho_is_empty_word_coefficient():
    element = 3 * _w() - 2 * _w((1, 0)) + _w((0, 2), (1, 1))
    assert counit(rho(element)) == 3
    assert counit(rho(_w((2, 1)))) == 0


def test_rho_size_guard():
    with pytest.raises(SizeLimitError):
        rho(_w((13, 0)))
    with pytest.raises(SizeLimitError):
        rho(_w((2, 0)), limit=1)


def test_rho_honours_a_raised_limit():
    # 13 vertices is over the default bound of 12 but within the one given.
    image = rho(_w((13,)), limit=13)
    # the forests on 13 vertices: OEIS A000081 counts 32,973 rooted trees on 14
    assert len(image.terms) == 32973
    assert set(image.terms.values()) == {1}
    assert rho_js(13, (1,), limit=13) == image


def test_js_values():
    assert js(0, (1, 2)) == _w()
    assert js(1, (1, 1)) == _w((1, 0)) + _w((0, 1))
    assert js(2, (1, 2)) == _w((2, 0)) + _w((0, 1))
    assert js(3, (1, 2)) == _w((3, 0)) + _w((1, 1))
    assert js(2, (1,)) == LinComb.basis(((2,),))


def test_js_validation():
    with pytest.raises(ValueError):
        js(-1, (1, 1))
    with pytest.raises(ValueError):
        js(2, (1, 0))
    with pytest.raises(ValueError):
        js(2, ())
    # a fractional weight is refused, not truncated; an integral float is not
    with pytest.raises(ValueError):
        js(2, (1.7,))
    with pytest.raises(ValueError):
        js(3, (1.5, 2))
    assert js(4, (2.0,)) == js(4, (2,)) == LinComb.basis(((2,),))
    with pytest.raises(SizeLimitError):
        js(13, (1, 1))
    with pytest.raises(SizeLimitError):
        js(4, (1, 1), limit=3)


def test_js_limit_counts_vertices_not_weight():
    # weight 14 in one color of weight 2 is the 7-vertex class (7)
    assert js(14, (2,)) == LinComb.basis(((7,),))
    assert js(4, (2,), limit=3) == LinComb.basis(((2,),))
    with pytest.raises(SizeLimitError):
        js(26, (2,))
    # (13,0) has 13 vertices although (1,6) has only 7
    with pytest.raises(SizeLimitError):
        js(13, (1, 2))
    assert rho_js(14, (2,)) == rho(LinComb.basis(((7,),)))


def test_weight_reachability_matches_a_table():
    for k in (1, 2, 3):
        for weights in itertools.combinations_with_replacement(range(1, 12), k):
            reachable = {0}
            for n in range(1, 61):
                if any(n - w in reachable for w in weights):
                    reachable.add(n)
                assert _weight_may_be_reachable(n, weights) == (n in reachable), (
                    n,
                    weights,
                )


def test_js_of_large_weights_no_class_has():
    # 998999999 is the largest weight that 1000 and 1000001 cannot make
    assert js(998999999, (1000, 1000001)) == LinComb()
    assert js(1000001, (2, 4)) == LinComb()
    for n in (999000000, 13000012):
        with pytest.raises(SizeLimitError):
            js(n, (1000, 1000001))
    # weights too large for the table of residues are refused unchecked
    with pytest.raises(SizeLimitError):
        js(14 * 10**9 + 7, (10**9, 10**9 + 1, 10**9 + 2))


def test_comul_of_js_splits_the_weight():
    # the weight-n sum splits as sum over i+j=n of js_i (x) js_j
    weights = (1, 2)
    for n in range(5):
        lhs = nsym_comul(js(n, weights))
        rhs = LinComb()
        for i in range(n + 1):
            rhs = rhs + tensor(js(i, weights), js(n - i, weights))
        assert lhs == rhs, n


def test_rho_js_single_color():
    got = rho_js(2, (1,))
    named = {format_forest(k, ColorTable(("a",))): c for k, c in got.terms.items()}
    assert named == {"a+a": 1, "a[a]": 1}


def test_rho_js_is_kappa_sum():
    weights = (1, 2)
    for n in range(4):
        expect = LinComb()
        for i in range(n + 1):
            for j in range(n + 1):
                if i * 1 + j * 2 == n:
                    expect = expect + kappa((i, j))
        assert rho_js(n, weights) == expect, n


def test_word_degree_and_text_forms():
    assert word_degree((), 2) == (0, 0)
    assert word_degree(((1, 0), (1, 1)), 2) == (2, 1)
    assert format_word(()) == "1"
    assert format_word(((1, 1), (1, 0))) == "(1,1)|(1,0)"
    assert parse_word("1") == ()
    assert parse_word("(1,1)|(1,0)", 2) == ((1, 1), (1, 0))
    assert parse_word(" (1,1) | (1,0) ", 2) == ((1, 1), (1, 0))
    with pytest.raises(ParseError):
        parse_word("(0,0)", 2)
    with pytest.raises(ParseError):
        parse_word("(1,1)|(1,0)", 3)
    with pytest.raises(ParseError):
        parse_word("bogus", 2)
