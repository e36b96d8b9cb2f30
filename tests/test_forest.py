"""Canonical form, the forest grammar, and class arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foresthall.enumeration import forests_of_class
from foresthall.forest import (
    ColorTable,
    Forest,
    ParseError,
    Tree,
    add_classes,
    direct_sum,
    format_class,
    format_forest,
    k0_class,
    parse_class,
    parse_forest,
)
from foresthall.nsym import parse_word
from foresthall.qsym import parse_composition

AB = ColorTable(("a", "b"))
A = ColorTable(("a",))


def test_color_table_validation():
    assert len(AB) == 2
    assert AB.id("b") == 1
    assert AB.name(0) == "a"
    with pytest.raises(KeyError):
        AB.id("c")
    with pytest.raises(ValueError):
        ColorTable(())
    with pytest.raises(ValueError):
        ColorTable(("a", "a"))
    with pytest.raises(ValueError):
        ColorTable(("2bad",))


def test_parse_empty_forest():
    assert parse_forest("0", AB) == Forest()
    assert parse_forest("  0  ", AB) == Forest()
    assert format_forest(Forest(), AB) == "0"


def test_parse_basic_shapes():
    leaf = parse_forest("a", AB)
    assert leaf == Forest((Tree(0),))
    assert leaf.size == 1

    nested = parse_forest("a[b,a]", AB)
    assert nested.size == 3
    assert format_forest(nested, AB) == "a[a,b]"

    assert parse_forest("b+a", AB) == parse_forest("a+b", AB)
    assert format_forest(parse_forest("b+a", AB), AB) == "a+b"


def test_whitespace_is_ignored():
    assert parse_forest(" a [ b , a ] + b ", AB) == parse_forest("a[b,a]+b", AB)


def test_canonical_child_order():
    # children sort by (color, recursive key): a[b] precedes the bare b
    tree = Tree(0, [Tree(1), Tree(0, [Tree(1)])])
    assert format_forest(Forest([tree]), AB) == "a[a[b],b]"
    same = Tree(0, [Tree(0, [Tree(1)]), Tree(1)])
    assert tree == same
    assert hash(tree) == hash(same)


@pytest.mark.parametrize(
    "text",
    ["0", "a", "b", "a+b", "a+a", "a[a,b]", "a[a[b],b]", "b[a]+b[a]", "a[a,a,b]"],
)
def test_canonical_strings_round_trip(text):
    assert format_forest(parse_forest(text, AB), AB) == text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a+",
        "+a",
        "a[",
        "a[]",
        "[a]",
        "a]",
        "a[b,]",
        "0+a",
        "a+0",
        "a 0",
        "a b",
        "a++b",
        "1a",
        "a[b]c",
        "c",
        "a[x]",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_forest(text, AB)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_forest("a[x]", AB)
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_forest("a+*", AB)
    assert err.value.position == 2
    # Positions inside words, compositions and classes are offsets into
    # the whole text, not into the piece that held the error.
    for parse, text, position in [
        (lambda t: parse_word(t, 2), "(1,0)|(1,x)", 9),
        (lambda t: parse_composition(t, 2), "Z[(1,0),(0,y)]", 11),
        (lambda t: parse_word(t, 2), "(1,0)|(0,0)", 6),
        (lambda t: parse_composition(t, 2), "Z[(1,0), (0,0)]", 9),
        (parse_class, "(1,,2)", 3),
        (parse_class, "(1,\u00b2)", 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position, text


def test_k0_class_examples():
    assert k0_class(Forest(), 2) == (0, 0)
    assert k0_class(parse_forest("a[b]", AB), 2) == (1, 1)
    assert k0_class(parse_forest("a[b,a]", AB), 2) == (2, 1)
    assert k0_class(Forest((Tree(1),)), 2) == (0, 1)
    with pytest.raises(ValueError):
        k0_class(Forest((Tree(3),)), 2)


def test_direct_sum():
    one = Forest((Tree(0),))
    assert format_forest(direct_sum(one, one), AB) == "a+a"
    assert direct_sum(one, Forest()) == one
    assert direct_sum(Forest(), one) == one
    mixed = direct_sum(parse_forest("a[b]", AB), one)
    assert format_forest(mixed, AB) == "a+a[b]"
    assert direct_sum(one, parse_forest("a[b]", AB)) == mixed
    b = parse_forest("b", AB)
    assert direct_sum(one, b) == direct_sum(b, one)


def test_direct_sum_class_additivity():
    universe = [
        f
        for total in range(4)
        for i in range(total + 1)
        for f in forests_of_class((i, total - i))
    ]
    for left in universe:
        for right in universe:
            assert k0_class(direct_sum(left, right), 2) == add_classes(
                k0_class(left, 2), k0_class(right, 2)
            )


def test_class_helpers():
    assert add_classes((1, 2), (3, 4)) == (4, 6)
    with pytest.raises(ValueError):
        add_classes((1,), (1, 2))


def test_class_text_round_trip():
    assert format_class((2, 1)) == "(2,1)"
    assert parse_class("(2,1)") == (2, 1)
    assert parse_class(" ( 2 , 1 ) ") == (2, 1)
    assert parse_class("(0)") == (0,)
    for bad in ["2,1", "(2,-1)", "(a)", "()", "(2,1"]:
        with pytest.raises(ParseError):
            parse_class(bad)
    with pytest.raises(ParseError):
        parse_class("(2,1)", ncolors=3)


def test_serialization_is_injective_small_universe():
    # distinct forests never collide on their canonical string (<= 5 vertices)
    universe = [
        f
        for total in range(6)
        for i in range(total + 1)
        for f in forests_of_class((i, total - i))
    ]
    texts = {format_forest(f, AB) for f in universe}
    assert len(texts) == len(universe)
    for f in universe:
        assert parse_forest(format_forest(f, AB), AB) == f


# --- property tests --------------------------------------------------------

_color = st.integers(min_value=0, max_value=1)
_raw_tree = st.recursive(
    st.tuples(_color, st.just(())),
    lambda kids: st.tuples(_color, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=8,
)
_raw_forest = st.lists(_raw_tree, max_size=4)


def _build(raw, reorder):
    color, kids = raw
    return Tree(color, reorder([_build(k, reorder) for k in kids]))


@given(_raw_tree)
def test_child_order_never_matters(raw):
    forward = _build(raw, lambda ks: ks)
    backward = _build(raw, lambda ks: list(reversed(ks)))
    assert forward == backward
    assert forward.key == backward.key


@given(_raw_forest)
def test_component_order_never_matters(raws):
    trees = [_build(r, lambda ks: ks) for r in raws]
    assert Forest(trees) == Forest(list(reversed(trees)))


@given(_raw_forest)
def test_format_parse_round_trip(raws):
    forest = Forest([_build(r, lambda ks: ks) for r in raws])
    assert parse_forest(format_forest(forest, AB), AB) == forest


@given(_raw_forest, _raw_forest)
def test_equality_decides_isomorphism(left, right):
    # equal canonical strings exactly when the canonical forms are equal
    lf = Forest([_build(r, lambda ks: ks) for r in left])
    rf = Forest([_build(r, lambda ks: list(reversed(ks))) for r in right])
    assert (lf == rf) == (format_forest(lf, AB) == format_forest(rf, AB))
