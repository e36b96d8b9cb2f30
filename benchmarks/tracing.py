"""Spans around the program's public functions, installed from outside.

Every traced function is replaced, at each module attribute that refers to
it, by a wrapper that records a span (name, start, end, parent).  A layer's
self time is its spans' duration minus what their child spans cover.  Counts
come from returned values and from ``cache_info()`` of memoized functions.
A function that a later version of the program no longer calls reads 0.

Spans are kept in memory and written out when the run ends.  Only the first
``MAX_SPANS`` are kept, so that a run with millions of calls stays small; the
totals behind the per-layer metrics cover every call.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from checks import SUITES

MAX_SPANS = 200_000

# (span name, module, attribute): the functions the program calls through
# module attributes.  Private ones are listed where a public function hands
# its real work to them, so that the work is not charged to the caller.
TRACED = (
    ("forest.parse_forest", "forest", "parse_forest"),
    ("forest.parse_class", "forest", "parse_class"),
    ("forest.k0_class", "forest", "k0_class"),
    ("enumeration.forests_of_class", "enumeration", "forests_of_class"),
    ("cuts.enumerate_cuts", "cuts", "enumerate_cuts"),
    ("cuts.cut_census", "cuts", "cut_census"),
    ("cuts.count_cut_pairs", "cuts", "count_cut_pairs"),
    ("cuts.enumerate_flags", "cuts", "enumerate_flags"),
    ("hall.hall_mul", "hall", "hall_mul"),
    ("hall._delta_mul", "hall", "_delta_mul"),
    ("hall._graft_candidates", "hall", "_graft_candidates"),
    ("hall.kappa", "hall", "kappa"),
    ("hall.hall_comul", "hall", "hall_comul"),
    ("hall.antipode", "hall", "antipode"),
    ("nsym.rho", "nsym", "rho"),
    ("qsym.rho_t", "qsym", "rho_t"),
    ("qsym.quasi_shuffle", "qsym", "quasi_shuffle"),
    ("qsym._shuffle_pair", "qsym", "_shuffle_pair"),
    ("qsym.pair", "qsym", "pair"),
    ("qsym.deconcat", "qsym", "deconcat"),
    ("linear.bilinear", "linear", "bilinear"),
    ("cli.main", "cli", "main"),
)

MODULES = (
    "forest", "linear", "cuts", "enumeration", "hall", "nsym", "qsym",
    "verify", "cli",
)


def _ratio(part, base) -> float:
    return part / base if base else 0.0


def _size(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


class Tracer:
    """Records spans and per-name totals for the functions it wraps."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []
        self.dropped = 0
        self._stack: list = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list = []
        self._memos: dict = {}  # span name -> (memoized function, misses)

    def wrap(self, name, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` counts."""
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (span_id, name, start - self.origin,
                         end - self.origin, parent)
                    )
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _replace(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        """Wrap every function in ``TRACED``, the identity suites and
        ``LinComb`` construction of the imported ``foresthall``."""
        import importlib

        mods = {
            m: importlib.import_module(f"foresthall.{m}") for m in MODULES
        }
        every = [importlib.import_module("foresthall"), *mods.values()]
        counters = self._counters(mods)
        for name, module, attr in TRACED:
            original = getattr(mods[module], attr, None)
            if original is None:
                continue
            if hasattr(original, "cache_info"):
                self._memos[name] = (original, original.cache_info().misses)
            self._replace(
                every, original, self.wrap(name, original, counters.get(name))
            )

        suites = getattr(mods["verify"], "_SUITES", {})
        for suite, original in list(suites.items()):
            suites[suite] = self.wrap(
                f"verify.{suite}", original, self._suite_counter(suite)
            )
            self._undo.append((suites, suite, original))

        lincomb = mods["linear"].LinComb
        original_init = lincomb.__init__
        counts = self.counts

        def init(obj, terms=()):
            if not isinstance(terms, dict):
                terms = list(terms)
            counts["linear.terms_in"] += len(terms)
            original_init(obj, terms)
            counts["linear.terms_kept"] += len(obj.terms)

        lincomb.__init__ = self.wrap("linear.LinComb", init)
        self._undo.append((lincomb, "__init__", original_init))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def _suite_counter(self, suite):
        def after(args, report):
            self.counts[f"verify.{suite}_checked"] += report["checked"]

        return after

    def _counters(self, mods) -> dict:
        counts = self.counts

        def add(key):
            return lambda args, result: counts.update({key: _size(result)})

        def on_miss(key, memo):
            # A memoized call that raised the miss count did the work.
            if memo is None or not hasattr(memo, "cache_info"):
                return add(key)
            seen = [memo.cache_info().misses]

            def after(args, result):
                misses = memo.cache_info().misses
                if misses != seen[0]:
                    seen[0] = misses
                    counts[key] += _size(result)

            return after

        def graft(args, result):
            # Each component of A tries every vertex of B, and no vertex.
            a, b = (args + (None, None))[:2]
            counts["hall.graft_assignments"] += (
                getattr(b, "size", 0) + 1
            ) ** len(getattr(a, "trees", ()))
            counts["hall.graft_candidates"] += _size(result)

        cuts, hall = mods["cuts"], mods["hall"]
        return {
            "enumeration.forests_of_class": add(
                "enumeration.forests_returned"
            ),
            "cuts.enumerate_cuts": on_miss(
                "cuts.cuts_enumerated", getattr(cuts, "enumerate_cuts", None)
            ),
            "cuts.cut_census": on_miss(
                "cuts.cut_census_entries", getattr(cuts, "cut_census", None)
            ),
            "cuts.enumerate_flags": add("cuts.flags_enumerated"),
            "hall._graft_candidates": graft,
            "hall._delta_mul": on_miss(
                "hall.graft_kept", getattr(hall, "_delta_mul", None)
            ),
            "qsym.rho_t": add("qsym.rho_t_terms"),
        }

    def metrics(self) -> dict:
        """Per-layer figures from the spans and counts recorded so far."""
        calls, own, counts = self.calls, self.self_s, self.counts

        def misses(name):
            if name not in self._memos:
                return 0
            memo, before = self._memos[name]
            return memo.cache_info().misses - before

        candidates = counts["hall.graft_candidates"]
        assignments = counts["hall.graft_assignments"]
        out = {
            "forest.parse_s": own["forest.parse_forest"]
            + own["forest.parse_class"],
            "forest.k0_class_calls": calls["forest.k0_class"],
            "forest.k0_class_s": own["forest.k0_class"],
            "enumeration.forests_of_class_calls": calls[
                "enumeration.forests_of_class"
            ],
            "enumeration.forests_of_class_s": own[
                "enumeration.forests_of_class"
            ],
            "enumeration.forests_returned": counts[
                "enumeration.forests_returned"
            ],
            "cuts.enumerate_cuts_calls": calls["cuts.enumerate_cuts"],
            "cuts.enumerate_cuts_misses": misses("cuts.enumerate_cuts"),
            "cuts.enumerate_cuts_s": own["cuts.enumerate_cuts"],
            "cuts.cuts_enumerated": counts["cuts.cuts_enumerated"],
            "cuts.cut_census_misses": misses("cuts.cut_census"),
            "cuts.cut_census_entries": counts["cuts.cut_census_entries"],
            "cuts.cut_census_s": own["cuts.cut_census"],
            "cuts.count_cut_pairs_calls": calls["cuts.count_cut_pairs"],
            "cuts.count_cut_pairs_s": own["cuts.count_cut_pairs"],
            "cuts.enumerate_flags_calls": calls["cuts.enumerate_flags"],
            "cuts.enumerate_flags_s": own["cuts.enumerate_flags"],
            "cuts.flags_enumerated": counts["cuts.flags_enumerated"],
            "hall.hall_mul_calls": calls["hall.hall_mul"],
            "hall.hall_mul_s": own["hall.hall_mul"] + own["hall._delta_mul"],
            "hall.graft_candidates_s": own["hall._graft_candidates"],
            "hall.graft_assignments": assignments,
            "hall.graft_candidates": candidates,
            "hall.graft_distinct_ratio": _ratio(candidates, assignments),
            "hall.graft_kept_ratio": _ratio(
                counts["hall.graft_kept"], candidates
            ),
            "hall.kappa_s": own["hall.kappa"],
            "hall.hall_comul_s": own["hall.hall_comul"],
            "hall.antipode_s": own["hall.antipode"],
            "nsym.rho_calls": calls["nsym.rho"],
            "nsym.rho_s": own["nsym.rho"],
            "qsym.rho_t_calls": calls["qsym.rho_t"],
            "qsym.rho_t_s": own["qsym.rho_t"],
            "qsym.rho_t_terms": counts["qsym.rho_t_terms"],
            "qsym.quasi_shuffle_calls": calls["qsym.quasi_shuffle"],
            "qsym.quasi_shuffle_s": own["qsym.quasi_shuffle"]
            + own["qsym._shuffle_pair"],
            "qsym.pair_s": own["qsym.pair"],
            "qsym.deconcat_s": own["qsym.deconcat"],
            "linear.lincomb_calls": calls["linear.LinComb"],
            "linear.lincomb_s": own["linear.LinComb"],
            "linear.terms_in": counts["linear.terms_in"],
            "linear.terms_kept": counts["linear.terms_kept"],
            "linear.bilinear_s": own["linear.bilinear"],
            "cli.self_s": own["cli.main"],
            "trace.spans": self._next_id,
            "trace.spans_dropped": self.dropped,
        }
        for suite in SUITES:
            out[f"verify.{suite}_s"] = own[f"verify.{suite}"]
            out[f"verify.{suite}_checked"] = counts[f"verify.{suite}_checked"]
        return out

    def write(self, path) -> None:
        """The kept spans as JSON: ``[id, name, start_s, end_s, parent_id]``,
        times from the tracer's creation, parent -1 for a top-level span."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {"dropped": self.dropped, "spans": self.spans}, out,
                separators=(",", ":"),
            )

