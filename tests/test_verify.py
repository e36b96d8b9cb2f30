"""The executable identity suites and their reporting."""

import json
import pathlib

import pytest

import foresthall
import foresthall.hall
import foresthall.nsym
import foresthall.qsym
import foresthall.verify
from foresthall.forest import ColorTable, parse_forest
from foresthall.linear import LinComb
from foresthall.verify import SUITE_NAMES, run_all, run_suite

AB = ColorTable(("a", "b"))


def test_registry():
    assert SUITE_NAMES == (
        "theorem1",
        "theorem2",
        "js-split",
        "hall-oracle",
        "counts",
        "hopf-axioms",
        "dual-pair",
        "rhot-hom",
    )
    # benchmarks/tracing.py wraps these callables and reads the report each
    # returns, so each must run its checks in the call, not yield them
    for name in SUITE_NAMES:
        report = foresthall.verify._SUITES[name](AB, 2, None)
        assert report["suite"] == name
        assert report["checked"] > 0
        assert report["checked"] == run_suite(name, AB, 2)["checked"]


def test_all_suites_pass_on_small_universe():
    reports = run_all(AB, 3)
    assert [r["suite"] for r in reports] == list(SUITE_NAMES)
    for report in reports:
        assert report["checked"] > 0
        assert report["failures"] == [], report["suite"]
        assert report["colors"] == ["a", "b"]
        assert report["bound"] == 3


def test_suites_pass_single_and_three_colors():
    single = ColorTable(("x",))
    triple = ColorTable(("a", "b", "c"))
    for report in run_all(single, 4):
        assert report["failures"] == [], report["suite"]
    for report in run_all(triple, 2):
        assert report["failures"] == [], report["suite"]


def test_hopf_axioms_to_five_vertices():
    # associativity/coassociativity/compatibility stay exact one size past
    # the antipode identities' usual range
    report = run_suite("hopf-axioms", AB, 5)
    assert report["checked"] > 10_000
    assert report["failures"] == []


def test_rhot_hom_to_four_vertices():
    report = run_suite("rhot-hom", AB, 4)
    assert report["checked"] > 500
    assert report["failures"] == []


def test_js_split_with_weights():
    report = run_suite("js-split", AB, 5, weights=(1, 2))
    assert report["checked"] == 6
    assert report["failures"] == []


def test_reports_are_deterministic():
    assert run_suite("hall-oracle", AB, 3) == run_suite("hall-oracle", AB, 3)
    assert run_all(AB, 2) == run_all(AB, 2)


def test_validation():
    with pytest.raises(ValueError):
        run_suite("nope", AB, 3)
    with pytest.raises(ValueError):
        run_suite("counts", AB, -1)
    with pytest.raises(ValueError):
        run_suite("js-split", AB, 3, weights=(1,))


def test_failures_are_reported(monkeypatch):
    # break the product route; the oracle suite must catch and describe it
    monkeypatch.setattr(
        foresthall.hall, "_delta_mul", lambda a, b: LinComb()
    )
    report = run_suite("hall-oracle", AB, 2)
    assert report["failures"]
    first = report["failures"][0]
    assert set(first) == {"instance", "lhs", "rhs"}
    assert first["lhs"] == {}
    assert first["rhs"]
    # smallest failing instance comes first
    assert first["instance"] == "A=0 B=0"


def _drop_last_term(when):
    """A fault dropping the last term from every result that has two or more
    terms and whose arguments satisfy ``when``."""

    def fault(original):
        def broken(*args):
            result = original(*args)
            terms = list(result.terms.items())
            if len(terms) > 1 and when(*args):
                return LinComb(terms[:-1])
            return result

        return broken

    return fault


def _bump_two_part_flags(target):
    """A fault counting every two-part flag of the forest ``target`` once
    more in ``rho_t``.  Only the outer call is patched, so the images of
    the forests whose cuts prune ``target`` stay right."""
    return lambda original: lambda forest, ncolors, limit=None: LinComb(
        (flag, n + (len(flag) == 2 and forest == target))
        for flag, n in original(forest, ncolors, limit).items()
    )


def _miscount_two_vertices(original):
    """The forest counter off by one on every class of two vertices."""
    return lambda ncolors, bound: {
        alpha: n + (sum(alpha) == 2)
        for alpha, n in original(ncolors, bound).items()
    }


VERTEX_A, VERTEX_B = parse_forest("a", AB), parse_forest("b", AB)
FOREST_AB = parse_forest("a+b", AB)
A_B = ((1, 0), (0, 1))  # the word, or composition, of letters a then b

# the product delta_a * delta_b and the coproduct of delta_{a+b}, broken
BROKEN_MUL = (
    foresthall.hall,
    "_delta_mul",
    _drop_last_term(lambda x, y: (x, y) == (VERTEX_A, VERTEX_B)),
)
BROKEN_COMUL = (
    foresthall.hall,
    "_delta_comul",
    _drop_last_term(FOREST_AB.__eq__),
)

# The faults injected per suite, as (module, attribute, fault) patches.  Each
# hits a few instances only, yet together they make checks of every kind
# fail except hopf-axioms' unit and left counit laws, so the golden reports
# pin the instance names of the other kinds.
FAULTS = {
    "theorem1": [BROKEN_COMUL],
    "theorem2": [
        (foresthall.qsym, "rho_t", _bump_two_part_flags(FOREST_AB))
    ],
    "js-split": [
        (
            foresthall.nsym,
            "_word_comul",
            _drop_last_term(lambda word: len(word) == 1),
        )
    ],
    "hall-oracle": [BROKEN_MUL],
    "counts": [(foresthall.verify, "_forest_counts", _miscount_two_vertices)],
    "hopf-axioms": [BROKEN_MUL, BROKEN_COMUL],
    "dual-pair": [
        (foresthall.nsym, "_word_comul", _drop_last_term(A_B.__eq__)),
        (
            foresthall.qsym,
            "deconcat",
            _drop_last_term(LinComb.basis(A_B).__eq__),
        ),
    ],
    "rhot-hom": [
        (
            foresthall.qsym,
            "rho_t",
            _bump_two_part_flags(parse_forest("a[b]+b", AB)),
        )
    ],
}

GOLDEN_FAILURES = (
    pathlib.Path(__file__).parent / "golden" / "verify_failures.json"
)


def _faulty_report(suite, monkeypatch):
    """The report of ``suite`` (2 colors, bound 3) under its faults, between
    cold memos."""
    foresthall.clear_caches()
    try:
        with monkeypatch.context() as patch:
            for module, attr, fault in FAULTS[suite]:
                patch.setattr(module, attr, fault(getattr(module, attr)))
            return run_suite(suite, AB, 3)
    finally:
        # after the patches are undone, so memos that cached faulty results
        # (such as the recursion of _shuffle_pair) are emptied too
        foresthall.clear_caches()


def test_every_suite_has_a_fault():
    assert list(FAULTS) == list(SUITE_NAMES)


@pytest.mark.parametrize("suite", FAULTS)
def test_failure_reports_match_golden(monkeypatch, suite):
    # every failing instance, its name and both sides, in report order
    report = _faulty_report(suite, monkeypatch)
    golden = json.loads(GOLDEN_FAILURES.read_text())[suite]
    assert report["failures"]
    assert json.dumps(report) == json.dumps(golden)
