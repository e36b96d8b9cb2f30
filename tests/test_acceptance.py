"""Acceptance gate: nine criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by; without -s pytest shows them for failing criteria only.  Every
equality is exact; the bracketed figure is elapsed versus the runtime budget.
"""

import json
import subprocess
import sys
import time

from foresthall.enumeration import forests_of_class
from foresthall.forest import ColorTable, format_forest, parse_forest
from foresthall.hall import delta, hall_mul
from foresthall.linear import LinComb
from foresthall.qsym import format_composition, quasi_shuffle
from foresthall.verify import run_suite

AB = ColorTable(("a", "b"))
A1 = ColorTable(("a",))


def _criterion(name, budget_s, fn):
    start = time.perf_counter()
    try:
        fn()
        ok, detail = True, ""
    except AssertionError as exc:
        ok, detail = False, f" ({exc})"
    elapsed = time.perf_counter() - start
    in_time = elapsed <= budget_s
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"ACCEPTANCE {name}: {status} [{elapsed:.2f}s/{budget_s:g}s]{detail}")
    assert ok, f"{name} failed{detail}"
    assert in_time, f"{name} took {elapsed:.2f}s, budget {budget_s:g}s"


def _cli(env, *argv):
    result = subprocess.run(
        [sys.executable, "-m", "foresthall.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _no_failures(report):
    assert report["checked"] > 0
    assert report["failures"] == [], report["failures"][:3]


def test_criterion_1_kappa_mixed_class_cli(package_env):
    def check():
        out = _cli(
            package_env,
            "hall", "kappa", "--class", "(1,1)", "--colors", "a,b", "--json"
        )
        payload = json.loads(out)
        assert payload["terms"] == {"a+b": "1", "a[b]": "1", "b[a]": "1"}

    _criterion("1 kappa-(1,1) via CLI", 1.0, check)


def test_criterion_2_quasi_shuffle_worked_example():
    def check():
        got = quasi_shuffle(
            LinComb.basis(((1, 0),)), LinComb.basis(((0, 1), (2, 0)))
        )
        named = {format_composition(k): c for k, c in got.terms.items()}
        assert named == {
            "Z[(1,0),(0,1),(2,0)]": 1,
            "Z[(0,1),(1,0),(2,0)]": 1,
            "Z[(0,1),(2,0),(1,0)]": 1,
            "Z[(1,1),(2,0)]": 1,
            "Z[(0,1),(3,0)]": 1,
        }

    _criterion("2 quasi-shuffle example", 1.0, check)


def test_criterion_3_flag_expansion_cli(package_env):
    def check():
        out = _cli(
            package_env,
            "qsym", "rhot", "--forest", "a[b,a]", "--colors", "a,b", "--json"
        )
        payload = json.loads(out)
        assert payload["terms"] == {
            "Z[(2,1)]": "1",
            "Z[(0,1),(2,0)]": "1",
            "Z[(1,0),(1,1)]": "1",
            "Z[(1,1),(1,0)]": "1",
            "Z[(1,0),(0,1),(1,0)]": "1",
            "Z[(0,1),(1,0),(1,0)]": "1",
        }

    _criterion("3 rho_t(a[b,a]) via CLI", 1.0, check)


def test_criterion_4_comul_of_kappa():
    _criterion(
        "4 theorem1 suite (2 colors, total<=4)",
        30.0,
        lambda: _no_failures(run_suite("theorem1", AB, 4)),
    )


def test_criterion_5_flag_transpose():
    _criterion(
        "5 theorem2 suite (2 colors, <=4 vertices)",
        120.0,
        lambda: _no_failures(run_suite("theorem2", AB, 4)),
    )


def test_criterion_6_weight_sum_coproduct():
    _criterion(
        "6 js-split suite (weights a=1,b=2, n<=5)",
        10.0,
        lambda: _no_failures(run_suite("js-split", AB, 5, weights=(1, 2))),
    )


def test_criterion_7_hall_oracle():
    def check():
        _no_failures(run_suite("hall-oracle", A1, 5))
        _no_failures(run_suite("hall-oracle", AB, 5))
        dot = parse_forest("a", A1)
        named = {
            format_forest(k, A1): c
            for k, c in hall_mul(delta(dot), delta(dot)).terms.items()
        }
        assert named == {"a+a": 2, "a[a]": 1}

    _criterion("7 hall-oracle (1 and 2 colors, total<=5)", 120.0, check)


def test_criterion_8_enumeration_counts():
    def check():
        pinned = [1, 2, 4, 9, 20, 48]
        for n, expect in zip(range(1, 7), pinned):
            generated = forests_of_class((n,))
            assert len(generated) == expect, n
            assert len(set(generated)) == len(generated)

    _criterion("8 single-color counts 1..6", 5.0, check)


def test_criterion_9_hopf_axioms_and_duality():
    def check():
        _no_failures(run_suite("hopf-axioms", AB, 4))
        _no_failures(run_suite("dual-pair", AB, 4))

    _criterion("9 hopf-axioms + dual-pair (2 colors, <=4)", 300.0, check)
