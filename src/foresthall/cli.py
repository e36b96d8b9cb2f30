"""Command-line interface.

Subcommands cover parsing/normalization, cut and flag enumeration, forest
generation, the four algebra structures, the homomorphisms between them, and
the executable verification suites.  Output is plain text by default or a
stable JSON document with --json.

Exit codes: 0 success, 1 domain errors (malformed input, unknown colors,
size guard), 2 usage errors and verification failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as verify_mod
from .cuts import FULL_CUT, enumerate_cuts, flag_counts
from .enumeration import (
    DEFAULT_SIZE_LIMIT,
    SizeLimitError,
    forests_of_class,
)
from .forest import (
    ColorTable,
    ParseError,
    add_classes,
    format_class,
    format_forest,
    k0_class,
    parse_class,
    parse_forest,
)
from .hall import antipode, delta, hall_comul, hall_mul, kappa
from .linear import LinComb
from .nsym import format_word, js, parse_word, rho, rho_js, word_degree
from .qsym import (
    composition_degree,
    deconcat,
    format_composition,
    parse_composition,
    quasi_shuffle,
    rho_t,
)

GRAMMAR = """\
forest grammar:
  forest := "0" | tree ("+" tree)*
  tree   := IDENT | IDENT "[" tree ("," tree)* "]"
  IDENT  := [A-Za-z_][A-Za-z0-9_]*     (a declared color name)
whitespace between tokens is ignored; output is canonical, no whitespace.

other notation:
  class vector   (2,1)          one count per color, in --colors order
  word           (1,1)|(1,0)    "|"-separated nonzero class vectors; 1 = unit
  composition    Z[(2,1),(1,0)] quasisymmetric basis element; Z[] = unit
"""


class CliError(Exception):
    """Configuration problems the parser cannot catch (exit code 1)."""


class _Session:
    __slots__ = ("colors", "weights", "max_vertices", "json_out")

    def __init__(self, colors, weights, max_vertices, json_out):
        self.colors = colors
        self.weights = weights
        self.max_vertices = max_vertices
        self.json_out = json_out

    @property
    def limit(self) -> int:
        return (
            DEFAULT_SIZE_LIMIT
            if self.max_vertices is None
            else self.max_vertices
        )


def _parse_weight_list(text: str) -> list[tuple[str, int]]:
    pairs = []
    for piece in text.split(","):
        name, eq, value = piece.partition("=")
        name, value = name.strip(), value.strip()
        if not eq or not value.isdigit():
            raise CliError(
                f"bad weight entry {piece!r}; expected name=positive-integer"
            )
        if int(value) < 1:
            raise CliError(f"weight for {name!r} must be positive")
        pairs.append((name, int(value)))
    return pairs


def _make_session(args) -> _Session:
    colors = None
    if getattr(args, "colors", None):
        colors = ColorTable(
            name.strip() for name in args.colors.split(",")
        )
    weights = None
    if getattr(args, "weights", None):
        pairs = _parse_weight_list(args.weights)
        if colors is None:
            colors = ColorTable(name for name, _ in pairs)
        by_name = dict(pairs)
        if len(by_name) != len(pairs):
            raise CliError("duplicate color in --weights")
        if set(by_name) != set(colors.names):
            raise CliError(
                "--weights must assign exactly the declared colors "
                f"({','.join(colors.names)})"
            )
        weights = tuple(by_name[name] for name in colors.names)
    max_vertices = getattr(args, "max_vertices", None)
    if max_vertices is not None and max_vertices < 0:
        raise CliError("--max-vertices must be non-negative")
    return _Session(
        colors, weights, max_vertices, bool(getattr(args, "json", False))
    )


def _need_colors(session: _Session) -> ColorTable:
    if session.colors is None:
        raise CliError("--colors (or --weights) is required for this command")
    return session.colors


def _guard(session: _Session, total: int) -> None:
    if total > session.limit:
        raise SizeLimitError(
            f"input has {total} vertices, over the limit of {session.limit} "
            "(raise with --max-vertices)"
        )


def _emit(session: _Session, payload: dict, lines: list[str]) -> None:
    if session.json_out:
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        for line in lines:
            print(line)


def _element_payload(elem: LinComb, fmt_key, deg_key):
    rows = sorted((fmt_key(k), k) for k in elem.terms)
    terms = {s: str(elem.terms[k]) for s, k in rows}
    degrees = {deg_key(k) for k in elem.terms}
    degree = list(degrees.pop()) if len(degrees) == 1 else None
    payload = {"terms": terms, "degree": degree}
    lines = [f"{terms[s]} {s}" for s, _ in rows] if rows else ["0"]
    return payload, lines


def _emit_element(session: _Session, elem: LinComb, fmt_key, deg_key) -> int:
    payload, lines = _element_payload(elem, fmt_key, deg_key)
    _emit(session, payload, lines)
    return 0


def _forest_renderers(session: _Session):
    colors = _need_colors(session)
    nc = len(colors)
    return (
        lambda f: format_forest(f, colors),
        lambda f: k0_class(f, nc),
    )


def _forest_pair_renderers(session: _Session):
    colors = _need_colors(session)
    nc = len(colors)
    return (
        lambda p: f"{format_forest(p[0], colors)}"
        f"(x){format_forest(p[1], colors)}",
        lambda p: add_classes(k0_class(p[0], nc), k0_class(p[1], nc)),
    )


# --- subcommand handlers ---------------------------------------------------


def _cmd_forest_normalize(session, args) -> int:
    colors = _need_colors(session)
    forest = parse_forest(args.expr, colors)
    text = format_forest(forest, colors)
    payload = {
        "forest": text,
        "class": list(k0_class(forest, len(colors))),
        "size": forest.size,
    }
    _emit(session, payload, [text])
    return 0


def _cmd_forest_class(session, args) -> int:
    colors = _need_colors(session)
    forest = parse_forest(args.expr, colors)
    alpha = k0_class(forest, len(colors))
    _emit(
        session,
        {"class": list(alpha), "size": forest.size},
        [format_class(alpha)],
    )
    return 0


def _fmt_cut(cut) -> list:
    out = []
    for component in cut:
        if component == FULL_CUT:
            out.append("full")
        else:
            out.append(sorted(component))
    return out


def _cmd_cuts_list(session, args) -> int:
    colors = _need_colors(session)
    forest = parse_forest(args.expr, colors)
    _guard(session, forest.size)
    rows = []
    for cut, result in enumerate_cuts(forest):
        rows.append(
            {
                "cut": _fmt_cut(cut),
                "pruned": format_forest(result.pruned, colors),
                "root": format_forest(result.root_part, colors),
            }
        )
    payload = {
        "forest": format_forest(forest, colors),
        "cuts": rows,
        "count": len(rows),
    }
    lines = [
        f"{row['pruned']} | {row['root']} | "
        + ";".join(
            c if isinstance(c, str) else "{" + ",".join(map(str, c)) + "}"
            for c in row["cut"]
        )
        for row in rows
    ]
    lines.append(f"count={len(rows)}")
    _emit(session, payload, lines)
    return 0


def _cmd_cuts_flags(session, args) -> int:
    colors = _need_colors(session)
    nc = len(colors)
    forest = parse_forest(args.expr, colors)
    _guard(session, forest.size)
    if forest.size == 0:
        raise CliError("flags are defined for nonempty forests")
    if args.k is not None and args.k < 1:
        raise CliError("--k must be at least 1")
    counts = {
        flag: n
        for flag, n in flag_counts(forest, nc).items()
        if args.k is None or len(flag) == args.k
    }
    rows = sorted(counts, key=lambda f: (len(f), format_word(f)))
    payload = {
        "forest": format_forest(forest, colors),
        "flags": {format_word(f): counts[f] for f in rows},
        "count": sum(counts.values()),
    }
    lines = [f"{counts[f]} {format_word(f)}" for f in rows]
    lines.append(f"count={sum(counts.values())}")
    _emit(session, payload, lines)
    return 0


def _cmd_enumerate(session, args) -> int:
    colors = _need_colors(session)
    alpha = parse_class(args.class_vec, len(colors))
    forests = forests_of_class(alpha, limit=session.limit)
    names = [format_forest(f, colors) for f in forests]
    payload = {"class": list(alpha), "forests": names, "count": len(names)}
    _emit(session, payload, names + [f"count={len(names)}"])
    return 0


def _cmd_hall_mul(session, args) -> int:
    colors = _need_colors(session)
    left = parse_forest(args.left, colors)
    right = parse_forest(args.right, colors)
    _guard(session, left.size + right.size)
    fmt, deg = _forest_renderers(session)
    return _emit_element(session, hall_mul(delta(left), delta(right)), fmt, deg)


def _cmd_hall_comul(session, args) -> int:
    colors = _need_colors(session)
    forest = parse_forest(args.expr, colors)
    _guard(session, forest.size)
    fmt, deg = _forest_pair_renderers(session)
    return _emit_element(session, hall_comul(delta(forest)), fmt, deg)


def _cmd_hall_kappa(session, args) -> int:
    colors = _need_colors(session)
    alpha = parse_class(args.class_vec, len(colors))
    fmt, deg = _forest_renderers(session)
    return _emit_element(session, kappa(alpha, limit=session.limit), fmt, deg)


def _cmd_hall_antipode(session, args) -> int:
    colors = _need_colors(session)
    forest = parse_forest(args.expr, colors)
    fmt, deg = _forest_renderers(session)
    return _emit_element(
        session, antipode(delta(forest), limit=session.limit), fmt, deg
    )


def _cmd_nsym_rho(session, args) -> int:
    colors = _need_colors(session)
    word = parse_word(args.word, len(colors))
    fmt, deg = _forest_renderers(session)
    return _emit_element(
        session, rho(LinComb.basis(word), limit=session.limit), fmt, deg
    )


def _session_weights(session: _Session) -> tuple[int, ...]:
    colors = _need_colors(session)
    if session.weights is not None:
        return session.weights
    return (1,) * len(colors)


def _cmd_nsym_js(session, args) -> int:
    nc = len(_need_colors(session))
    elem = js(args.n, _session_weights(session), limit=session.limit)
    return _emit_element(
        session, elem, format_word, lambda w: word_degree(w, nc)
    )


def _cmd_nsym_rhojs(session, args) -> int:
    elem = rho_js(args.n, _session_weights(session), limit=session.limit)
    fmt, deg = _forest_renderers(session)
    return _emit_element(session, elem, fmt, deg)


def _cmd_qsym_shuffle(session, args) -> int:
    nc = len(_need_colors(session))
    left = parse_composition(args.left, nc)
    right = parse_composition(args.right, nc)
    _guard(session, sum(composition_degree(left + right, nc)))
    elem = quasi_shuffle(LinComb.basis(left), LinComb.basis(right))
    return _emit_element(
        session,
        elem,
        format_composition,
        lambda comp: composition_degree(comp, nc),
    )


def _cmd_qsym_deconcat(session, args) -> int:
    nc = len(_need_colors(session))
    comp = parse_composition(args.expr, nc)
    _guard(session, sum(composition_degree(comp, nc)))
    elem = deconcat(LinComb.basis(comp))
    return _emit_element(
        session,
        elem,
        lambda p: f"{format_composition(p[0])}(x){format_composition(p[1])}",
        lambda p: add_classes(
            composition_degree(p[0], nc), composition_degree(p[1], nc)
        ),
    )


def _cmd_qsym_rhot(session, args) -> int:
    colors = _need_colors(session)
    nc = len(colors)
    forest = parse_forest(args.forest, colors)
    elem = rho_t(forest, nc, limit=session.limit)
    return _emit_element(
        session,
        elem,
        format_composition,
        lambda comp: composition_degree(comp, nc),
    )


def _fmt_side(side) -> str:
    if isinstance(side, dict):
        if not side:
            return "0"
        return " ".join(f"{k}={v}" for k, v in side.items())
    return str(side)


def _cmd_verify(session, args) -> int:
    colors = _need_colors(session)
    bound = 3 if session.max_vertices is None else session.max_vertices
    if args.suite == "all":
        reports = verify_mod.run_all(colors, bound, session.weights)
    else:
        reports = [
            verify_mod.run_suite(args.suite, colors, bound, session.weights)
        ]
    total_checked = sum(r["checked"] for r in reports)
    total_failures = sum(len(r["failures"]) for r in reports)
    lines = []
    for rep in reports:
        n_fail = len(rep["failures"])
        status = "PASS" if not n_fail else "FAIL"
        lines.append(
            f"{rep['suite']}: checked={rep['checked']} "
            f"failures={n_fail} {status}"
        )
        for failure in rep["failures"][:5]:
            lines.append(f"  FAIL {failure['instance']}")
            lines.append(f"    lhs: {_fmt_side(failure['lhs'])}")
            lines.append(f"    rhs: {_fmt_side(failure['rhs'])}")
        if n_fail > 5:
            lines.append(f"  ... and {n_fail - 5} more failures")
    overall = "PASS" if not total_failures else "FAIL"
    lines.append(
        f"total: checked={total_checked} failures={total_failures} {overall}"
    )
    payload = {
        "bound": bound,
        "weights": list(session.weights) if session.weights else None,
        "suites": reports,
        "pass": not total_failures,
    }
    _emit(session, payload, lines)
    return 0 if not total_failures else 2


# --- parser ----------------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--colors",
        metavar="NAMES",
        help="comma-separated ordered color names, e.g. a,b",
    )
    common.add_argument(
        "--weights",
        metavar="ASSIGN",
        help="per-color positive integer weights, e.g. a=1,b=2",
    )
    common.add_argument(
        "--max-vertices",
        type=int,
        metavar="N",
        help=f"size guard / universe bound (default {DEFAULT_SIZE_LIMIT}; "
        "verify defaults to 3)",
    )
    common.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="foresthall",
        description="Exact computer algebra for colored rooted forests.",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, func, help_text):
        p = group.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    forest = top.add_parser("forest", help="parse and normalize forests")
    fsub = forest.add_subparsers(dest="action", required=True)
    p = leaf(fsub, "normalize", _cmd_forest_normalize, "canonical form")
    p.add_argument("expr", help="forest expression")
    p = leaf(fsub, "class", _cmd_forest_class, "per-color vertex counts")
    p.add_argument("expr", help="forest expression")

    cuts_p = top.add_parser("cuts", help="admissible cuts and flags")
    csub = cuts_p.add_subparsers(dest="action", required=True)
    p = leaf(csub, "list", _cmd_cuts_list, "all admissible cuts")
    p.add_argument("expr", help="forest expression")
    p = leaf(csub, "flags", _cmd_cuts_flags, "iterated-cut class sequences")
    p.add_argument("expr", help="forest expression")
    p.add_argument("--k", type=int, help="flag length (default: all)")

    p = leaf(top, "enumerate", _cmd_enumerate, "forests of a given class")
    p.add_argument(
        "--class", dest="class_vec", required=True, help="class vector (2,1)"
    )

    hall_p = top.add_parser("hall", help="Hall algebra in the delta basis")
    hsub = hall_p.add_subparsers(dest="action", required=True)
    p = leaf(hsub, "mul", _cmd_hall_mul, "delta_A * delta_B")
    p.add_argument("left", help="forest expression")
    p.add_argument("right", help="forest expression")
    p = leaf(hsub, "comul", _cmd_hall_comul, "coproduct of delta_A")
    p.add_argument("expr", help="forest expression")
    p = leaf(hsub, "kappa", _cmd_hall_kappa, "class characteristic function")
    p.add_argument(
        "--class", dest="class_vec", required=True, help="class vector (2,1)"
    )
    p = leaf(hsub, "antipode", _cmd_hall_antipode, "antipode of delta_A")
    p.add_argument("expr", help="forest expression")

    nsym_p = top.add_parser(
        "nsym", help="noncommutative symmetric functions on class words"
    )
    nsub = nsym_p.add_subparsers(dest="action", required=True)
    p = leaf(nsub, "rho", _cmd_nsym_rho, "image of a word in the Hall algebra")
    p.add_argument(
        "--word", required=True, help="word such as (1,1)|(1,0); 1 = unit"
    )
    p = leaf(nsub, "js", _cmd_nsym_js, "weight-n generator sum")
    p.add_argument("--n", type=int, required=True, help="total weight")
    p = leaf(nsub, "rhojs", _cmd_nsym_rhojs, "rho of the weight-n sum")
    p.add_argument("--n", type=int, required=True, help="total weight")

    qsym_p = top.add_parser(
        "qsym", help="quasisymmetric functions on class compositions"
    )
    qsub = qsym_p.add_subparsers(dest="action", required=True)
    p = leaf(qsub, "shuffle", _cmd_qsym_shuffle, "quasi-shuffle product")
    p.add_argument("left", help="composition such as Z[(1,0)]")
    p.add_argument("right", help="composition such as Z[(0,1),(2,0)]")
    p = leaf(qsub, "deconcat", _cmd_qsym_deconcat, "deconcatenation coproduct")
    p.add_argument("expr", help="composition such as Z[(1,0),(0,1)]")
    p = leaf(qsub, "rhot", _cmd_qsym_rhot, "flag expansion of a forest")
    p.add_argument("--forest", required=True, help="forest expression")

    p = leaf(top, "verify", _cmd_verify, "run exact identity suites")
    p.add_argument(
        "suite",
        choices=list(verify_mod.SUITE_NAMES) + ["all"],
        help="which suite to run",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        session = _make_session(args)
        return args.func(session, args)
    except (CliError, ParseError, SizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # Parsing, formatting and the algebra recurse once per tree level.
        print("error: input is nested too deeply to process", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
