"""Identity suites checked exactly over bounded universes of forests.

Every suite enumerates its instances in a fixed order (total vertex count
first, then canonical serialization), compares both sides of an identity
term by term with exact rationals, and reports any counterexample in full.
Instances are enumerated smallest first, so the first failure in a report is
a minimal one.  Each side of an identity is built once per run (a forest's
coproduct, antipode or rho_t image, a class's rho images, the adjoint of
the word coproduct), and an instance is named only when its check fails.

The hall-oracle suite is the designated cross-check of the product: it
recomputes every structure constant by counting the cuts of each forest of
the universe by (pruned, root), a census that lives only in that suite,
while the algebra counts graft assignments and automorphisms and never
lists a cut.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import cuts, enumeration, hall, nsym, qsym
from .forest import ColorTable, Forest, format_class, format_forest
from .linear import LinComb, tensor, tensor_mul

__all__ = ["SUITE_NAMES", "run_suite", "run_all"]


def _classes_of_total(ncolors: int, total: int):
    for alpha in itertools.product(*(range(total + 1),) * ncolors):
        if sum(alpha) == total:
            yield alpha


def _classes_upto(ncolors: int, bound: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(bound + 1):
        out.extend(sorted(_classes_of_total(ncolors, total)))
    return out


def _forests_upto(ncolors: int, bound: int) -> list[Forest]:
    out = []
    for alpha in _classes_upto(ncolors, bound):
        out.extend(enumeration.forests_of_class(alpha, limit=bound))
    return out


@lru_cache(maxsize=None)
def _words_of_degree(gamma: tuple[int, ...]) -> tuple:
    """All words (tuples of nonzero classes) with letter sum gamma."""
    if not any(gamma):
        return ((),)
    out = []
    for head in itertools.product(*(range(g + 1) for g in gamma)):
        if not any(head):
            continue
        rest = tuple(g - h for g, h in zip(gamma, head))
        out.extend((head,) + tail for tail in _words_of_degree(rest))
    return tuple(out)


def _new_report(name: str, colors: ColorTable, bound: int) -> dict:
    return {
        "suite": name,
        "colors": list(colors.names),
        "bound": bound,
        "checked": 0,
        "failures": [],
    }


def _fmt_terms(elem: LinComb, fmt_key) -> dict:
    return {
        s: str(c)
        for s, c in sorted((fmt_key(k), c) for k, c in elem.terms.items())
    }


def _check(report, name, lhs: LinComb, rhs: LinComb, fmt_key) -> None:
    """Count one check; ``name()`` gives the instance's name on failure."""
    report["checked"] += 1
    if lhs != rhs:
        report["failures"].append(
            {
                "instance": name(),
                "lhs": _fmt_terms(lhs, fmt_key),
                "rhs": _fmt_terms(rhs, fmt_key),
            }
        )


def _check_scalar(report, name, lhs, rhs) -> None:
    report["checked"] += 1
    if lhs != rhs:
        report["failures"].append(
            {"instance": name(), "lhs": str(lhs), "rhs": str(rhs)}
        )


def _fmt_forest(colors):
    return lambda f: format_forest(f, colors)


def _fmt_forest_tensor(colors):
    return lambda t: " (x) ".join(format_forest(f, colors) for f in t)


def _fmt_word_pair(p):
    return f"{nsym.format_word(p[0])} (x) {nsym.format_word(p[1])}"


def _fmt_comp_pair(p):
    return (
        f"{qsym.format_composition(p[0])} (x) {qsym.format_composition(p[1])}"
    )


def _suite_theorem1(colors, bound, weights) -> dict:
    """hall_comul(kappa_gamma) = sum over alpha+beta=gamma of
    kappa_alpha (x) kappa_beta."""
    nc = len(colors)
    report = _new_report("theorem1", colors, bound)
    for gamma in _classes_upto(nc, bound):
        lhs = hall.hall_comul(hall.kappa(gamma, limit=bound))
        terms = []
        for alpha in itertools.product(*(range(g + 1) for g in gamma)):
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            for fa in enumeration.forests_of_class(alpha, limit=bound):
                for fb in enumeration.forests_of_class(beta, limit=bound):
                    terms.append(((fa, fb), 1))
        rhs = LinComb(terms)
        _check(
            report,
            lambda: f"gamma={format_class(gamma)}",
            lhs,
            rhs,
            _fmt_forest_tensor(colors),
        )
    return report


def _suite_theorem2(colors, bound, weights) -> dict:
    """The flag expansion is the transpose of rho: the coefficient of the
    composition w in rho_t(W_A) equals the coefficient of delta_A in
    rho(word w), for every forest A and word w of matching degree."""
    nc = len(colors)
    report = _new_report("theorem2", colors, bound)
    for gamma in _classes_upto(nc, bound):
        words = _words_of_degree(gamma)
        # columns[A][w] is the coefficient of delta_A in rho(word w)
        columns: dict = {}
        for w in words:
            for a, c in nsym.rho(LinComb.basis(w), limit=bound).terms.items():
                columns.setdefault(a, {})[w] = c
        for a in enumeration.forests_of_class(gamma, limit=bound):
            expansion = qsym.rho_t(a, nc, limit=bound).terms
            column = columns.get(a, {})
            for w in words:
                _check_scalar(
                    report,
                    lambda: f"A={format_forest(a, colors)} "
                    f"word={nsym.format_word(w)}",
                    expansion.get(w, 0),
                    column.get(w, 0),
                )
    return report


def _suite_js_split(colors, bound, weights) -> dict:
    """nsym_comul(js_n) = sum over i+j=n of js_i (x) js_j."""
    nc = len(colors)
    ws = weights if weights is not None else (1,) * nc
    report = _new_report("js-split", colors, bound)
    for n in range(bound + 1):
        lhs = nsym.nsym_comul(nsym.js(n, ws, limit=bound))
        terms = []
        for i in range(n + 1):
            split = tensor(
                nsym.js(i, ws, limit=bound), nsym.js(n - i, ws, limit=bound)
            )
            terms.extend(split.terms.items())
        rhs = LinComb(terms)
        _check(report, lambda: f"n={n} weights={ws}", lhs, rhs, _fmt_word_pair)
    return report


def _suite_hall_oracle(colors, bound, weights) -> dict:
    """Every product delta_A * delta_B agrees with the brute-force route:
    the coefficient of delta_M is the number of cuts of M with pruned part A
    and root part B, counted by listing the cuts of every forest M once."""
    nc = len(colors)
    report = _new_report("hall-oracle", colors, bound)
    universe = _forests_upto(nc, bound)
    fmt = _fmt_forest(colors)
    # census[(A, B)][M] is the number of cuts of M into (A, B)
    census: dict = {}
    for m in universe:
        for _, pruned, root in cuts.enumerate_cuts(m):
            counts = census.setdefault((pruned, root), {})
            counts[m] = counts.get(m, 0) + 1
    for a in universe:
        for b in universe:
            if a.size + b.size > bound:
                continue
            _check(
                report,
                lambda: f"A={fmt(a)} B={fmt(b)}",
                hall.hall_mul(hall.delta(a), hall.delta(b)),
                LinComb(census.get((a, b), {})),
                fmt,
            )
    return report


def _suite_counts(colors, bound, weights) -> dict:
    """The orderly generator and the Euler-transform counter agree."""
    nc = len(colors)
    report = _new_report("counts", colors, bound)
    for alpha in _classes_upto(nc, bound):
        generated = len(enumeration.forests_of_class(alpha, limit=bound))
        counted = enumeration.count_forests_of_class(alpha, limit=bound)
        _check_scalar(
            report, lambda: f"alpha={format_class(alpha)}", generated, counted
        )
    return report


def _suite_hopf_axioms(colors, bound, weights) -> dict:
    """Associativity, coassociativity, co-commutativity, counit laws,
    bialgebra compatibility, and the antipode identity, on the delta basis."""
    nc = len(colors)
    report = _new_report("hopf-axioms", colors, bound)
    universe = _forests_upto(nc, bound)
    fmt = _fmt_forest(colors)
    fmt_tensor = _fmt_forest_tensor(colors)
    empty = LinComb.basis(Forest())
    comul = {f: hall.hall_comul(hall.delta(f)) for f in universe}
    antipode = {f: hall.antipode(hall.delta(f), limit=bound) for f in universe}

    def delta_mul(x, y):
        return hall.hall_mul(hall.delta(x), hall.delta(y))

    for a in universe:
        da, split = hall.delta(a), comul[a]

        # unit laws
        _check(
            report,
            lambda: f"unit-left A={fmt(a)}",
            hall.hall_mul(empty, da),
            da,
            fmt,
        )
        _check(
            report,
            lambda: f"unit-right A={fmt(a)}",
            hall.hall_mul(da, empty),
            da,
            fmt,
        )

        # coassociativity
        left_terms, right_terms = [], []
        for (x, y), c in split.terms.items():
            for (u, v), d in comul[x].terms.items():
                left_terms.append(((u, v, y), c * d))
            for (u, v), d in comul[y].terms.items():
                right_terms.append(((x, u, v), c * d))
        _check(
            report,
            lambda: f"coassoc A={fmt(a)}",
            LinComb(left_terms),
            LinComb(right_terms),
            fmt_tensor,
        )

        # co-commutativity
        flipped = LinComb(((y, x), c) for (x, y), c in split.terms.items())
        _check(
            report, lambda: f"cocomm A={fmt(a)}", split, flipped, fmt_tensor
        )

        # counit laws
        left_counit = LinComb(
            (y, c * hall.counit(hall.delta(x)))
            for (x, y), c in split.terms.items()
        )
        right_counit = LinComb(
            (x, c * hall.counit(hall.delta(y)))
            for (x, y), c in split.terms.items()
        )
        _check(report, lambda: f"counit-left A={fmt(a)}", left_counit, da, fmt)
        _check(
            report, lambda: f"counit-right A={fmt(a)}", right_counit, da, fmt
        )

        # antipode: m(S (x) id)Delta = unit . counit = m(id (x) S)Delta
        eps_side = hall.counit(da) * empty
        s_left, s_right = [], []
        for (x, y), c in split.terms.items():
            left = hall.hall_mul(antipode[x], hall.delta(y))
            right = hall.hall_mul(hall.delta(x), antipode[y])
            s_left.extend((k, c * v) for k, v in left.terms.items())
            s_right.extend((k, c * v) for k, v in right.terms.items())
        _check(
            report,
            lambda: f"antipode-left A={fmt(a)}",
            LinComb(s_left),
            eps_side,
            fmt,
        )
        _check(
            report,
            lambda: f"antipode-right A={fmt(a)}",
            LinComb(s_right),
            eps_side,
            fmt,
        )

    for a in universe:
        for b in universe:
            if a.size + b.size > bound:
                continue
            da, db = hall.delta(a), hall.delta(b)
            ab = hall.hall_mul(da, db)

            # bialgebra compatibility
            _check(
                report,
                lambda: f"compat A={fmt(a)} B={fmt(b)}",
                hall.hall_comul(ab),
                tensor_mul(comul[a], comul[b], delta_mul, delta_mul),
                fmt_tensor,
            )

            for c3 in universe:
                if a.size + b.size + c3.size > bound:
                    continue
                _check(
                    report,
                    lambda: f"assoc A={fmt(a)} B={fmt(b)} C={fmt(c3)}",
                    hall.hall_mul(ab, hall.delta(c3)),
                    hall.hall_mul(da, hall.hall_mul(db, hall.delta(c3))),
                    fmt,
                )
    return report


def _suite_dual_pair(colors, bound, weights) -> dict:
    """The pairing is a duality: <ab, v> = <a (x) b, comul v> and
    <deconcat a, v (x) w> = <a, vw>."""
    nc = len(colors)
    report = _new_report("dual-pair", colors, bound)
    comps_by_total = [
        [
            comp
            for gamma in sorted(_classes_of_total(nc, total))
            for comp in _words_of_degree(gamma)
        ]
        for total in range(bound + 1)
    ]
    # adjoint[(a, b)] lists (v, coefficient of a (x) b in comul v)
    adjoint: dict = {}
    for comps in comps_by_total:
        for v in comps:
            for ab, c in nsym.nsym_comul(LinComb.basis(v)).terms.items():
                adjoint.setdefault(ab, []).append((v, c))

    for ta in range(bound + 1):
        for tb in range(bound + 1 - ta):
            for a in comps_by_total[ta]:
                for b in comps_by_total[tb]:
                    _check(
                        report,
                        lambda: f"mul-adjoint a={qsym.format_composition(a)} "
                        f"b={qsym.format_composition(b)}",
                        qsym.quasi_shuffle(LinComb.basis(a), LinComb.basis(b)),
                        LinComb(adjoint.get((a, b), ())),
                        qsym.format_composition,
                    )

    for total in range(bound + 1):
        for a in comps_by_total[total]:
            lhs = qsym.deconcat(LinComb.basis(a))
            rhs_terms = []
            for i in range(len(a) + 1):
                v, w = a[:i], a[i:]
                if nsym.nsym_mul(
                    LinComb.basis(v), LinComb.basis(w)
                ) == LinComb.basis(a):
                    rhs_terms.append(((v, w), 1))
            _check(
                report,
                lambda: f"comul-adjoint a={qsym.format_composition(a)}",
                lhs,
                LinComb(rhs_terms),
                _fmt_comp_pair,
            )
    return report


def _suite_rhot_hom(colors, bound, weights) -> dict:
    """rho_t is a Hopf algebra map: it takes disjoint union to the
    quasi-shuffle and the cut coproduct to deconcatenation."""
    nc = len(colors)
    report = _new_report("rhot-hom", colors, bound)
    universe = _forests_upto(nc, bound)
    fmt = _fmt_forest(colors)
    image = {f: qsym.rho_t(f, nc, limit=bound) for f in universe}

    for a in universe:
        for b in universe:
            if a.size + b.size > bound:
                continue
            _check(
                report,
                lambda: f"mul A={fmt(a)} B={fmt(b)}",
                image[hall.ck_mul(a, b)],
                qsym.quasi_shuffle(image[a], image[b]),
                qsym.format_composition,
            )

    for a in universe:
        terms = []
        for pruned, root in hall.ck_comul(a):
            terms.extend(tensor(image[pruned], image[root]).terms.items())
        _check(
            report,
            lambda: f"comul A={fmt(a)}",
            qsym.deconcat(image[a]),
            LinComb(terms),
            _fmt_comp_pair,
        )
    return report


_SUITES = {
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "js-split": _suite_js_split,
    "hall-oracle": _suite_hall_oracle,
    "counts": _suite_counts,
    "hopf-axioms": _suite_hopf_axioms,
    "dual-pair": _suite_dual_pair,
    "rhot-hom": _suite_rhot_hom,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name, colors: ColorTable, bound: int, weights=None) -> dict:
    """Run one named identity suite over the bounded universe."""
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}"
        )
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if weights is not None:
        weights = tuple(weights)
        if len(weights) != len(colors):
            raise ValueError("need one weight per color")
    return _SUITES[name](colors, bound, weights)


def run_all(colors: ColorTable, bound: int, weights=None) -> list[dict]:
    """Run every suite, in registry order."""
    return [run_suite(name, colors, bound, weights) for name in SUITE_NAMES]
