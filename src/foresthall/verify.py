"""Identity suites checked exactly over bounded universes of forests.

Every suite only states its identities: it yields one check per instance,
in a fixed order (total vertex count first, then canonical serialization),
as the instance's lazy name and both sides.  One runner counts the checks,
compares the two sides term by term with exact rationals, and reports any
counterexample in full.  Instances are enumerated smallest first, so the
first failure in a report is a minimal one.  Each side of an identity is
built once per run (a forest's coproduct, antipode or rho_t image, a
class's rho images, the adjoint of the word coproduct), a side that applies
the library's own maps to a combination is built by ``extend`` (a sum of
tensors by ``_tensor_sum``), and an instance is named only when its check
fails.

Two suites hold the oracle they check against, and share no code with the
library route they check.  The hall-oracle suite recomputes every structure
constant of the product by counting the cuts of each forest of the universe
by (pruned, root), while the algebra counts graft assignments and
automorphisms and never lists a cut.  The counts suite counts the forests of
each class by the rooted-tree recursion and a class-refined Euler
transform, while the enumeration generates them.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import cuts, enumeration, hall, nsym, qsym
from .forest import (
    ColorTable,
    Forest,
    _class_splits,
    _classes_of_weight,
    direct_sum,
    format_class,
    format_forest,
)
from .linear import LinComb, _tensor_sum, extend, tensor, tensor_mul

__all__ = ["SUITE_NAMES", "run_suite", "run_all"]


def _classes_upto(ncolors: int, bound: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(bound + 1):
        out.extend(_classes_of_weight(total, (1,) * ncolors))
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
    for head, rest in _class_splits(gamma):
        if any(head):
            out.extend((head,) + tail for tail in _words_of_degree(rest))
    return tuple(out)


_SUITES: dict = {}


def _fmt_side(side, fmt_key):
    """A scalar side as its string, a combination as sorted formatted terms."""
    if fmt_key is None:
        return str(side)
    return {
        s: str(c)
        for s, c in sorted((fmt_key(k), c) for k, c in side.terms.items())
    }


def _suite(name: str):
    """Register a generator of checks ``(instance, lhs, rhs, fmt_key)`` as
    the suite ``name``: the registered callable runs every check and returns
    the report.  ``fmt_key`` formats a combination's keys, or is ``None``
    for scalar sides."""

    def register(checks):
        def run(colors: ColorTable, bound: int, weights) -> dict:
            report = {
                "suite": name,
                "colors": list(colors.names),
                "bound": bound,
                "checked": 0,
                "failures": [],
            }
            for instance, lhs, rhs, fmt_key in checks(colors, bound, weights):
                report["checked"] += 1
                if lhs != rhs:
                    # The generator is suspended at this check's yield, so
                    # the loop variables instance() closes over still hold
                    # the failing instance.
                    report["failures"].append(
                        {
                            "instance": instance(),
                            "lhs": _fmt_side(lhs, fmt_key),
                            "rhs": _fmt_side(rhs, fmt_key),
                        }
                    )
            return report

        _SUITES[name] = run
        return checks

    return register


def _fmt_forest(colors):
    return lambda f: format_forest(f, colors)


def _fmt_tensor(fmt):
    """Format a tensor of keys, each written by ``fmt``."""
    return lambda t: " (x) ".join(map(fmt, t))


@_suite("theorem1")
def _suite_theorem1(colors, bound, weights):
    """hall_comul(kappa_gamma) = sum over alpha+beta=gamma of
    kappa_alpha (x) kappa_beta."""
    nc = len(colors)
    for gamma in _classes_upto(nc, bound):
        lhs = hall.hall_comul(hall.kappa(gamma, limit=bound))
        terms = []
        for alpha, beta in _class_splits(gamma):
            for fa in enumeration.forests_of_class(alpha, limit=bound):
                for fb in enumeration.forests_of_class(beta, limit=bound):
                    terms.append(((fa, fb), 1))
        yield (
            lambda: f"gamma={format_class(gamma)}",
            lhs,
            LinComb(terms),
            _fmt_tensor(_fmt_forest(colors)),
        )


@_suite("theorem2")
def _suite_theorem2(colors, bound, weights):
    """The flag expansion is the transpose of rho: the coefficient of the
    composition w in rho_t(W_A) equals the coefficient of delta_A in
    rho(word w), for every forest A and word w of matching degree."""
    nc = len(colors)
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
                yield (
                    lambda: f"A={format_forest(a, colors)} "
                    f"word={nsym.format_word(w)}",
                    expansion.get(w, 0),
                    column.get(w, 0),
                    None,
                )


@_suite("js-split")
def _suite_js_split(colors, bound, weights):
    """nsym_comul(js_n) = sum over i+j=n of js_i (x) js_j."""
    nc = len(colors)
    ws = weights if weights is not None else (1,) * nc

    def js(i):
        return nsym.js(i, ws, limit=bound)

    for n in range(bound + 1):
        yield (
            lambda: f"n={n} weights={ws}",
            nsym.nsym_comul(js(n)),
            extend(
                LinComb((i, 1) for i in range(n + 1)),
                lambda i: tensor(js(i), js(n - i)),
            ),
            _fmt_tensor(nsym.format_word),
        )


@_suite("hall-oracle")
def _suite_hall_oracle(colors, bound, weights):
    """Every product delta_A * delta_B agrees with the brute-force route:
    the coefficient of delta_M is the number of cuts of M with pruned part A
    and root part B, counted by listing the cuts of every forest M once."""
    nc = len(colors)
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
            yield (
                lambda: f"A={fmt(a)} B={fmt(b)}",
                hall.hall_mul(hall.delta(a), hall.delta(b)),
                LinComb(census.get((a, b), {})),
                fmt,
            )


def _forest_counts(ncolors: int, bound: int) -> dict:
    """The number of forests of each class of at most ``bound`` vertices,
    counted without listing one.

    A tree of class beta is a root of some color s over a forest of class
    beta - e_s.  A forest is a multiset of trees, counted by the Euler
    transform refined by class: the table starts at the empty forest and
    takes in each class beta, smallest total first, with k trees of class
    beta chosen among its ``kinds`` shapes in C(kinds + k - 1, k) ways.
    Every class of a smaller total is taken in before beta, so the table is
    final on the forest classes its tree count reads.
    """
    classes = _classes_upto(ncolors, bound)
    counts = dict.fromkeys(classes, 0)
    counts[classes[0]] = 1
    for beta in classes[1:]:
        kinds = sum(
            counts[enumeration._decrement(beta, s)]
            for s in range(ncolors)
            if beta[s]
        )
        # largest total first: gamma reads only entries beta has not updated
        for gamma in reversed(classes):
            k = 1
            sub = tuple(g - b for g, b in zip(gamma, beta))
            while min(sub) >= 0:
                counts[gamma] += math.comb(kinds + k - 1, k) * counts[sub]
                k += 1
                sub = tuple(g - k * b for g, b in zip(gamma, beta))
    return counts


@_suite("counts")
def _suite_counts(colors, bound, weights):
    """The orderly generator and the Euler-transform counter agree."""
    counts = _forest_counts(len(colors), bound)
    for alpha in counts:
        yield (
            lambda: f"alpha={format_class(alpha)}",
            len(enumeration.forests_of_class(alpha, limit=bound)),
            counts[alpha],
            None,
        )


@_suite("hopf-axioms")
def _suite_hopf_axioms(colors, bound, weights):
    """Associativity, coassociativity, co-commutativity, counit laws,
    bialgebra compatibility, and the antipode identity, on the delta basis."""
    nc = len(colors)
    universe = _forests_upto(nc, bound)
    fmt = _fmt_forest(colors)
    fmt_tensor = _fmt_tensor(fmt)
    delta, counit, hall_mul = hall.delta, hall.counit, hall.hall_mul
    empty = LinComb.basis(Forest())
    comul = {f: hall.hall_comul(delta(f)) for f in universe}
    antipode = {f: hall.antipode(delta(f), limit=bound) for f in universe}

    def delta_mul(x, y):
        return hall_mul(delta(x), delta(y))

    for a in universe:
        da, split = delta(a), comul[a]

        # unit laws
        yield lambda: f"unit-left A={fmt(a)}", hall_mul(empty, da), da, fmt
        yield lambda: f"unit-right A={fmt(a)}", hall_mul(da, empty), da, fmt

        # coassociativity
        left_terms, right_terms = [], []
        for (x, y), c in split.terms.items():
            for (u, v), d in comul[x].terms.items():
                left_terms.append(((u, v, y), c * d))
            for (u, v), d in comul[y].terms.items():
                right_terms.append(((x, u, v), c * d))
        yield (
            lambda: f"coassoc A={fmt(a)}",
            LinComb(left_terms),
            LinComb(right_terms),
            fmt_tensor,
        )

        # co-commutativity
        flipped = LinComb(((y, x), c) for (x, y), c in split.terms.items())
        yield lambda: f"cocomm A={fmt(a)}", split, flipped, fmt_tensor

        # counit laws
        yield (
            lambda: f"counit-left A={fmt(a)}",
            extend(split, lambda p: counit(delta(p[0])) * delta(p[1])),
            da,
            fmt,
        )
        yield (
            lambda: f"counit-right A={fmt(a)}",
            extend(split, lambda p: delta(p[0]) * counit(delta(p[1]))),
            da,
            fmt,
        )

        # antipode: m(S (x) id)Delta = unit . counit = m(id (x) S)Delta
        eps_side = counit(da) * empty
        yield (
            lambda: f"antipode-left A={fmt(a)}",
            extend(split, lambda p: hall_mul(antipode[p[0]], delta(p[1]))),
            eps_side,
            fmt,
        )
        yield (
            lambda: f"antipode-right A={fmt(a)}",
            extend(split, lambda p: hall_mul(delta(p[0]), antipode[p[1]])),
            eps_side,
            fmt,
        )

    for a in universe:
        for b in universe:
            if a.size + b.size > bound:
                continue
            da, db = delta(a), delta(b)
            ab = hall_mul(da, db)

            # bialgebra compatibility
            yield (
                lambda: f"compat A={fmt(a)} B={fmt(b)}",
                hall.hall_comul(ab),
                tensor_mul(comul[a], comul[b], delta_mul, delta_mul),
                fmt_tensor,
            )

            for c3 in universe:
                if a.size + b.size + c3.size > bound:
                    continue
                yield (
                    lambda: f"assoc A={fmt(a)} B={fmt(b)} C={fmt(c3)}",
                    hall_mul(ab, delta(c3)),
                    hall_mul(da, hall_mul(db, delta(c3))),
                    fmt,
                )


@_suite("dual-pair")
def _suite_dual_pair(colors, bound, weights):
    """The pairing is a duality: <ab, v> = <a (x) b, comul v> and
    <deconcat a, v (x) w> = <a, vw>."""
    nc = len(colors)
    fmt = qsym.format_composition
    comps_by_total = [
        [
            comp
            for gamma in _classes_of_weight(total, (1,) * nc)
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
                    yield (
                        lambda: f"mul-adjoint a={fmt(a)} b={fmt(b)}",
                        qsym.quasi_shuffle(LinComb.basis(a), LinComb.basis(b)),
                        LinComb(adjoint.get((a, b), ())),
                        fmt,
                    )

    for total in range(bound + 1):
        for a in comps_by_total[total]:
            rhs_terms = []
            for i in range(len(a) + 1):
                v, w = a[:i], a[i:]
                if nsym.nsym_mul(
                    LinComb.basis(v), LinComb.basis(w)
                ) == LinComb.basis(a):
                    rhs_terms.append(((v, w), 1))
            yield (
                lambda: f"comul-adjoint a={fmt(a)}",
                qsym.deconcat(LinComb.basis(a)),
                LinComb(rhs_terms),
                _fmt_tensor(fmt),
            )


@_suite("rhot-hom")
def _suite_rhot_hom(colors, bound, weights):
    """rho_t is a Hopf algebra map: it takes disjoint union to the
    quasi-shuffle and the cut coproduct to deconcatenation."""
    nc = len(colors)
    universe = _forests_upto(nc, bound)
    fmt = _fmt_forest(colors)
    image = {f: qsym.rho_t(f, nc, limit=bound) for f in universe}

    for a in universe:
        for b in universe:
            if a.size + b.size > bound:
                continue
            yield (
                lambda: f"mul A={fmt(a)} B={fmt(b)}",
                image[direct_sum(a, b)],
                qsym.quasi_shuffle(image[a], image[b]),
                qsym.format_composition,
            )

    for a in universe:
        # one tensor per distinct (pruned, root), weighted by its cut count
        cut_counts = LinComb(((p, r), 1) for _, p, r in cuts.enumerate_cuts(a))
        parts = ((n, image[p], image[r]) for (p, r), n in cut_counts.items())
        yield (
            lambda: f"comul A={fmt(a)}",
            qsym.deconcat(image[a]),
            _tensor_sum(parts),
            _fmt_tensor(qsym.format_composition),
        )


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
