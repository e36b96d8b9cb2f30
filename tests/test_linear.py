"""Sparse rational linear combinations."""

from fractions import Fraction

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
