"""Sparse rational linear combinations."""

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from foresthall.linear import LinComb, bilinear, extend, tensor, tensor_mul


def test_zero_coefficients_are_dropped():
    elem = LinComb([("x", 1), ("x", -1), ("y", 2)])
    assert elem.terms == {"y": Fraction(2)}
    assert not LinComb([("x", 0)])
    assert LinComb() == LinComb([("x", 1), ("x", -1)])


def test_accumulation_and_coeff():
    elem = LinComb([("x", 1), ("x", Fraction(1, 2))])
    assert elem.coeff("x") == Fraction(3, 2)
    assert elem.coeff("missing") == 0
    assert len(elem) == 1


def test_coeff_returns_fraction():
    elem = LinComb([("x", 2)])
    assert isinstance(elem.coeff("x"), Fraction)
    assert elem.coeff("x") == 2
    assert isinstance(elem.coeff("missing"), Fraction)


def test_integral_coefficients_are_stored_as_int():
    x = LinComb.basis("x")
    third = Fraction(1, 3) * (3 * x)
    assert type(third.terms["x"]) is int
    assert third.terms == x.terms
    halves = LinComb([("x", Fraction(1, 2)), ("x", Fraction(1, 2))])
    assert type(halves.terms["x"]) is int
    assert halves == x
    assert type(LinComb.basis("x", Fraction(1, 2)).terms["x"]) is Fraction


def test_basis_stores_each_scalar_once():
    zero = LinComb.basis("k", 0)
    assert zero == LinComb() and not zero.terms
    one = LinComb.basis("k", True).terms["k"]
    assert one == 1 and type(one) is int
    two = LinComb.basis("k", Fraction(4, 2)).terms["k"]
    assert two == 2 and type(two) is int
    half = LinComb.basis("k", 0.5).terms["k"]
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(LinComb.basis("k", -3).terms["k"]) is int


def test_integral_fraction_scalars_keep_int_coefficients():
    x = LinComb([("x", 1), ("y", -2)])
    for tripled in (Fraction(3, 1) * x, x * Fraction(3)):
        assert tripled.terms == {"x": 3, "y": -6}
        assert all(type(c) is int for c in tripled.terms.values())
    halved = Fraction(1, 2) * x
    assert halved.terms == {"x": Fraction(1, 2), "y": -1}
    assert type(halved.terms["x"]) is Fraction
    assert type(halved.terms["y"]) is int
    doubled = Fraction(2) * LinComb.basis("z", Fraction(1, 2))
    assert doubled.terms == {"z": 1} and type(doubled.terms["z"]) is int
    assert not (Fraction(0) * x).terms


def test_arithmetic():
    x = LinComb.basis("x")
    y = LinComb.basis("y", 3)
    assert (x + y).terms == {"x": 1, "y": 3}
    assert (x - x) == LinComb()
    assert (-y).coeff("y") == -3
    assert (2 * x + x * 2).coeff("x") == 4
    assert (Fraction(1, 3) * y).coeff("y") == 1
    assert x != y
    assert x != "x"


def test_bilinear_and_tensor():
    x, y = LinComb.basis("x", 2), LinComb.basis("y", 3)
    concat = bilinear(x, y, lambda a, b: LinComb.basis(a + b))
    assert concat.terms == {"xy": 6}

    t = tensor(x + y, y)
    assert t.terms == {("x", "y"): 6, ("y", "y"): 9}

    tm = tensor_mul(
        tensor(x, x),
        tensor(y, y),
        lambda a, b: LinComb.basis(a + b),
        lambda a, b: LinComb.basis(b + a),
    )
    assert tm.terms == {("xy", "yx"): 36}

    # Two pair products land on ("xy", "xy"), and sum or cancel there.
    def sort_mul(a, b):
        return LinComb.basis("".join(sorted(a + b)))

    xy, yx = LinComb.basis(("x", "y")), LinComb.basis(("y", "x"))
    tm = tensor_mul(xy + yx, yx + xy, sort_mul, sort_mul)
    assert tm.terms == {("xy", "xy"): 2, ("xx", "yy"): 1, ("yy", "xx"): 1}
    tm = tensor_mul(xy - yx, yx + xy, sort_mul, sort_mul)
    assert tm.terms == {("xx", "yy"): 1, ("yy", "xx"): -1}

    half = tensor(LinComb.basis("x", Fraction(1, 2)), LinComb.basis("y", 4))
    assert half.terms == {("x", "y"): 2}
    assert type(half.terms[("x", "y")]) is int


def test_bilinear_passes_a_unit_product_through():
    memo = {
        ("x", "y"): LinComb([("xy", 1), ("h", Fraction(1, 2))]),
        ("z", "y"): LinComb([("xy", -1), ("h", Fraction(1, 2))]),
    }

    def mul(a, b):
        return memo[a, b]

    x, y = LinComb.basis("x"), LinComb.basis("y")
    assert bilinear(x, y, mul) is memo["x", "y"]
    # a coefficient of 2 merges a fresh combination: the half becomes int 1
    for doubled in (
        bilinear(LinComb.basis("x", 2), y, mul),
        bilinear(x, LinComb.basis("y", 2), mul),
    ):
        assert doubled is not memo["x", "y"]
        assert doubled.terms == {"xy": 2, "h": 1}
        assert type(doubled.terms["h"]) is int
    # so does a two-term side: "xy" cancels and the halves sum to int 1
    summed = bilinear(LinComb([("x", 1), ("z", 1)]), y, mul)
    assert summed.terms == {"h": 1}
    assert type(summed.terms["h"]) is int
    # the memo handed out is left as it was
    assert memo["x", "y"].terms == {"xy": 1, "h": Fraction(1, 2)}


def test_bilinear_merges_like_the_constructor():
    # "xx" cancels, "xz" sums two halves to an int, "zz" stays a Fraction
    f = LinComb([("x", 1), ("z", Fraction(1, 2))])
    g = LinComb([("x", 1), ("z", Fraction(1, 2))])

    def mul(a, b):
        if a == b == "x":
            return LinComb([("xx", 1), ("xz", 1)])
        if a == b == "z":
            return LinComb([("zz", 1), ("xx", -4)])
        return LinComb.basis("xz")

    prod = bilinear(f, g, mul)
    expect = LinComb(
        (k, c * v)
        for a, ca in f.items()
        for b, cb in g.items()
        for k, v in mul(a, b).items()
        for c in [ca * cb]
    )
    assert prod == expect
    assert prod.terms == {"xz": 2, "zz": Fraction(1, 4)}
    assert type(prod.terms["xz"]) is int
    assert not bilinear(f, g, lambda a, b: LinComb()).terms


def test_extend_merges_like_the_constructor():
    images = {
        "x": LinComb([("p", 1), ("q", 2)]),
        "y": LinComb([("q", -4), ("r", Fraction(1, 2))]),
    }
    # one basis element with coefficient 1 maps to its image, not a copy
    assert extend(LinComb.basis("x"), images.get) is images["x"]
    f = LinComb([("x", 2), ("y", 1)])
    got = extend(f, images.get)
    assert got == LinComb(
        (k, c * v) for key, c in f.items() for k, v in images[key].items()
    )
    assert got.terms == {"p": 2, "r": Fraction(1, 2)}  # "q" cancels
    assert type(got.terms["p"]) is int
    assert extend(LinComb.basis("x", 3), images.get).terms == {"p": 3, "q": 6}


def test_float_coefficients_are_exact_per_term():
    # each float enters as its exact binary value before the terms are summed
    elem = LinComb([("x", 0.1), ("x", 0.2)])
    assert elem.terms == {"x": Fraction(0.1) + Fraction(0.2)}
    assert elem.coeff("x") != Fraction(0.1 + 0.2)
    assert type(LinComb([("x", 0.5), ("x", 0.5)]).terms["x"]) is int


_letter = st.sampled_from("xyz")
_coeff = st.one_of(
    st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)
)
# repeated keys sum, and may cancel, in the constructor
_pair_keyed = st.lists(
    st.tuples(st.tuples(_letter, _letter), _coeff), max_size=5
).map(LinComb)


def _sort_mul(p, q):
    # commutative, so several pairs of terms land on one key
    return LinComb([("".join(sorted(p + q)), 1), (p, Fraction(-1, 2))])


def _concat_mul(p, q):
    return LinComb([(p + q, 2), (q, Fraction(1, 3))])


@given(_pair_keyed, _pair_keyed)
@example(  # the products cancel on ("xy", "xy")
    LinComb([(("x", "x"), 1), (("y", "x"), -1)]),
    LinComb([(("y", "y"), 1), (("x", "y"), 1)]),
)
def test_tensor_mul_matches_bilinear_over_tensors(t1, t2):
    # the definition tensor_mul had before it accumulated into one dict
    def pair_mul(p, q):
        return tensor(_sort_mul(p[0], q[0]), _concat_mul(p[1], q[1]))

    got = tensor_mul(t1, t2, _sort_mul, _concat_mul)
    assert got == bilinear(t1, t2, pair_mul)
    # no zeros, and every integral coefficient stored as int
    assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())
    assert all(got.terms.values())
