"""Each check accepts the program's output and rejects it with one
coefficient changed."""

import io
import contextlib
import json

import pytest

import checks
import inputs
import oracle
from foresthall import ColorTable, LinComb, cli, parse_forest, rho, rho_t

AB = ColorTable(inputs.COLORS)
WORD = ((1, 0), (0, 1), (1, 1))
FOREST = ([-1, 0, 0, -1, 3, 1], [0, 1, 0, 1, 1, 0])


def _parse(text):
    return parse_forest(text, AB)


def _rho_terms():
    return dict(rho(LinComb.basis(WORD)).terms)


def _rho_t_terms():
    text = inputs.format_parent_forest(*FOREST)
    return dict(rho_t(parse_forest(text, AB), 2).terms)


def test_rho_check_accepts_the_program():
    assert checks.check_rho(WORD, _rho_terms(), 3, _parse) == []


@pytest.mark.parametrize("delta", [1, -1])
def test_rho_check_rejects_a_changed_sampled_coefficient(delta):
    terms = _rho_terms()
    key = checks.sampled_terms(
        terms, 3, inputs.format_word(WORD), checks.RHO_OUTPUT_SAMPLE
    )[0]
    terms[key] += delta
    assert checks.check_rho(WORD, terms, 3, _parse)


def test_rho_check_rejects_any_nonpositive_or_fractional_coefficient():
    for bad in (0, -2, 0.5):
        for key in _rho_terms():
            terms = _rho_terms()
            terms[key] = bad
            assert checks.check_rho(WORD, terms, 3, _parse), (key, bad)


def test_rho_check_rejects_a_term_of_the_wrong_class():
    terms = _rho_terms()
    terms[parse_forest("a+a+b+b", AB)] = 1
    assert checks.check_rho(WORD, terms, 3, _parse)


def test_rho_t_check_accepts_the_program():
    assert checks.check_rho_t(*FOREST, _rho_t_terms(), 4) == []


@pytest.mark.parametrize("delta", [1, -1])
def test_rho_t_check_rejects_any_changed_coefficient(delta):
    for key in _rho_t_terms():
        terms = _rho_t_terms()
        terms[key] += delta
        assert checks.check_rho_t(*FOREST, terms, 4), key


def test_rho_t_check_rejects_a_missing_or_foreign_composition():
    terms = _rho_t_terms()
    terms.pop(next(iter(terms)))
    assert checks.check_rho_t(*FOREST, terms, 4)
    terms = _rho_t_terms()
    terms[((1, 0),)] = 1
    assert checks.check_rho_t(*FOREST, terms, 4)


def _verify(bound):
    out = io.StringIO()
    argv = ["verify", "all", "--colors", "a,b", "--max-vertices", str(bound)]
    argv.append("--json")
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_expected_instance_counts_match_the_program():
    for bound in (2, 3):
        code, text = _verify(bound)
        expected = checks.expected_checked(2, bound)
        assert checks.check_verify(code, text, expected) == []


def test_forest_counts_by_hand():
    counts = checks.forest_counts(2, 3)
    assert counts[(1, 0)] == 1
    assert counts[(1, 1)] == 3  # a+b, a[b], b[a]
    assert counts[(2, 0)] == 2
    assert counts[(3, 0)] == 4


@pytest.mark.parametrize("suite", checks.SUITES)
def test_verify_check_rejects_a_changed_count_or_a_failure(suite):
    code, text = _verify(3)
    expected = checks.expected_checked(2, 3)
    for change in ("checked", "failure"):
        payload = json.loads(text)
        report = next(r for r in payload["suites"] if r["suite"] == suite)
        if change == "checked":
            report["checked"] += 1
        else:
            failure = {"instance": "x", "lhs": "1", "rhs": "2"}
            report["failures"].append(failure)
        assert checks.check_verify(code, json.dumps(payload), expected)


def test_verify_check_rejects_a_failing_exit_or_no_json():
    code, text = _verify(2)
    expected = checks.expected_checked(2, 2)
    assert checks.check_verify(2, text, expected)
    assert checks.check_verify(code, "total: PASS", expected)


def test_canonical_key_ignores_vertex_order():
    parents, colors = FOREST
    perm = [3, 5, 0, 1, 4, 2]
    moved_parents, moved_colors = [0] * 6, [0] * 6
    for v, p in enumerate(parents):
        moved_parents[perm[v]] = -1 if p < 0 else perm[p]
        moved_colors[perm[v]] = colors[v]
    key = checks.canonical(parents, colors)
    assert checks.canonical(moved_parents, moved_colors) == key
    forest = parse_forest(inputs.format_parent_forest(parents, colors), AB)
    assert checks.canonical(*oracle.flatten(forest)) == key
    assert checks.canonical(parents, colors[::-1]) != key
