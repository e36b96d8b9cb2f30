"""Checks of the program's outputs against computations made apart from it.

Each check returns a list of error strings, empty when the output is right.
Outputs are read only through ``.terms`` (key to coefficient) and, for a
forest key, its ``trees`` and each tree's ``color`` and ``children``.  Every
expected coefficient comes from :mod:`oracle`.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import inputs
import oracle

NCOLORS = len(inputs.COLORS)
VERIFY_BOUND = 4
SUITES = (
    "theorem1", "theorem2", "js-split", "hall-oracle", "counts",
    "hopf-axioms", "dual-pair", "rhot-hom",
)

# How many coefficients each check recomputes with the oracle.
RHO_OUTPUT_SAMPLE = 4  # per word, drawn from the output's terms
RHO_OTHER_SAMPLE = 4  # per word, forests the benchmark builds itself
RHOT_SAMPLE = 3  # per forest, both from the support and from all compositions


def canonical(parents, colors):
    """An isomorphism-invariant key of a colored forest, independent of the
    program's own canonical form."""
    children: list[list[int]] = [[] for _ in parents]
    roots = []
    for v, p in enumerate(parents):
        (roots if p < 0 else children[p]).append(v)

    def key(v):
        return (colors[v], tuple(sorted(key(c) for c in children[v])))

    return tuple(sorted(key(r) for r in roots))


def _is_count(value) -> bool:
    return type(value) is int and value > 0


def _seeded(seed, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def sampled_terms(keys, seed, label, count):
    """The output keys a check recomputes: a seeded pick from ``keys``, in
    the order the program lists them."""
    keys = list(keys)
    return _seeded(seed, label).sample(keys, min(count, len(keys)))


def check_rho(word, terms: dict, seed, parse) -> list[str]:
    """``terms`` of ``rho(word)``: every key a forest of the word's class
    with a positive integer coefficient, and sampled coefficients, from the
    output and from forests the benchmark builds, equal to the chain count.

    ``parse`` turns forest text into the program's key, to look up the
    coefficient of a forest the benchmark built.
    """
    errors = []
    shown = inputs.format_word(word)
    gamma = tuple(map(sum, zip(*word)))
    for forest, coeff in terms.items():
        if not _is_count(coeff):
            errors.append(f"rho({shown}): {coeff!r} is not a count")
        got = oracle.forest_class(forest, NCOLORS)
        if got != gamma:
            errors.append(f"rho({shown}): a term has class {got}")
    picked = [
        (oracle.flatten(f), terms[f])
        for f in sampled_terms(terms, seed, shown, RHO_OUTPUT_SAMPLE)
    ]
    rng = _seeded(seed, shown, "built")
    for _ in range(RHO_OTHER_SAMPLE):
        built = inputs.color_and_relabel(
            inputs.random_shape(rng, sum(gamma)), gamma, rng
        )
        key = parse(inputs.format_parent_forest(*built))
        picked.append((built, terms.get(key, 0)))
    for (parents, colors), got in picked:
        want = oracle.chain_count(parents, colors, word, NCOLORS)
        if got != want:
            text = inputs.format_parent_forest(parents, colors)
            errors.append(f"rho({shown}) at {text}: {got}, oracle {want}")
    return errors


def check_rho_t(parents, colors, terms: dict, seed) -> list[str]:
    """``terms`` of ``rho_t`` of the forest: compositions of its class with
    positive integer coefficients summing to the number of chains, and
    sampled coefficients, in and out of the support, equal to the oracle."""
    errors = []
    text = inputs.format_parent_forest(parents, colors)
    gamma = oracle.vertex_class(colors, NCOLORS)
    for comp, coeff in terms.items():
        if not _is_count(coeff):
            errors.append(f"rho_t({text}): {coeff!r} is not a count")
        if any(not any(part) for part in comp) or tuple(
            map(sum, zip(*comp))
        ) != gamma:
            errors.append(f"rho_t({text}): {comp!r} does not compose {gamma}")
    total = sum(terms.values())
    want_total = oracle.total_chains(parents, colors, NCOLORS)
    if total != want_total:
        errors.append(
            f"rho_t({text}): coefficients sum to {total}, chains {want_total}"
        )
    picked = sampled_terms(terms, seed, text, RHOT_SAMPLE)
    every = inputs.compositions(gamma)
    picked += _seeded(seed, text, "all").sample(
        every, min(RHOT_SAMPLE, len(every))
    )
    for comp in picked:
        want = oracle.chain_count(parents, colors, comp, NCOLORS)
        got = terms.get(comp, 0)
        if got != want:
            errors.append(f"rho_t({text}) at {comp}: {got}, oracle {want}")
    return errors


def forest_counts(ncolors: int, bound: int) -> Counter:
    """Forests per class vector up to ``bound`` vertices, by canonicalizing
    every colored parent array whose parents precede their children."""
    counts: Counter = Counter({(0,) * ncolors: 1})
    for n in range(1, bound + 1):
        seen = {}
        for parents in itertools.product(*(range(-1, i) for i in range(n))):
            for colors in itertools.product(range(ncolors), repeat=n):
                seen[canonical(parents, colors)] = colors
        for colors in seen.values():
            counts[oracle.vertex_class(colors, ncolors)] += 1
    return counts


def expected_checked(ncolors: int, bound: int) -> dict:
    """The instance count of every identity suite, from the benchmark's own
    counts of forests and compositions per class."""
    forests = forest_counts(ncolors, bound)
    classes = sorted(forests)
    comps = {g: len(inputs.compositions(g)) for g in classes}
    by_size = Counter()
    comps_by_size = Counter()
    for g in classes:
        by_size[sum(g)] += forests[g]
        comps_by_size[sum(g)] += comps[g]
    sizes = range(bound + 1)
    universe = sum(forests.values())
    pairs = sum(
        by_size[s] * by_size[t] for s in sizes for t in sizes if s + t <= bound
    )
    triples = sum(
        by_size[s] * by_size[t] * by_size[u]
        for s in sizes for t in sizes for u in sizes if s + t + u <= bound
    )
    comp_pairs = sum(
        comps_by_size[s] * comps_by_size[t]
        for s in sizes for t in sizes if s + t <= bound
    )
    return {
        "theorem1": len(classes),
        "theorem2": sum(forests[g] * comps[g] for g in classes),
        "js-split": bound + 1,
        "hall-oracle": pairs,
        "counts": len(classes),
        "hopf-axioms": 8 * universe + pairs + triples,
        "dual-pair": comp_pairs + sum(comps_by_size.values()),
        "rhot-hom": pairs + universe,
    }


def check_verify(code: int, text: str, expected: dict) -> list[str]:
    """Exit code 0, every suite passing, and every suite's instance count
    equal to ``expected``."""
    errors = []
    if code != 0:
        errors.append(f"verify exited with {code}")
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return errors + [f"verify printed no JSON document: {exc}"]
    if payload.get("pass") is not True:
        errors.append("verify reports pass != true")
    reports = {r.get("suite"): r for r in payload.get("suites", [])}
    for suite in SUITES:
        report = reports.get(suite)
        if report is None:
            errors.append(f"verify: suite {suite} missing")
            continue
        if report.get("failures"):
            failures = len(report["failures"])
            errors.append(f"verify: {suite} has {failures} failures")
        if report.get("checked") != expected[suite]:
            errors.append(
                f"verify: {suite} checked {report.get('checked')}, "
                f"expected {expected[suite]}"
            )
    return errors


def check(workload, items, results, seed, parse=None) -> list[str]:
    """Check one round's results; ``items`` are the benchmark's own inputs
    (words as lists of letters, forests as ``[parents, colors]``), and
    ``parse`` the program's forest parser, for ``rho-words``."""
    errors = []
    if workload == "rho-words":
        for word, result in zip(items, results):
            word = tuple(tuple(letter) for letter in word)
            errors += check_rho(word, result.terms, seed, parse)
    elif workload == "rhot-forests":
        for (parents, colors), result in zip(items, results):
            errors += check_rho_t(parents, colors, result.terms, seed)
    elif workload == "verify-all":
        expected = expected_checked(NCOLORS, VERIFY_BOUND)
        for code, text in results:
            errors += check_verify(code, text, expected)
    else:
        errors.append(f"unknown workload {workload!r}")
    return errors
