"""Command-line interface.

Subcommands cover parsing/normalization, cut enumeration, forest
generation, the four algebra structures, the homomorphisms between them
(``qsym rhot`` prints the flags of a forest, of every length, as
compositions), and the executable verification suites.  Output is plain
text by default or a stable JSON document with --json.

Every leaf command takes the common flags.  ``main`` settles them once on
the argparse namespace (``--colors`` becomes a ColorTable, ``--weights`` a
tuple in color order), and each handler then reads that namespace alone.

Exit codes: 0 success, 1 domain errors (malformed input, unknown colors,
size guard) and a reader that closed stdout early, 2 usage errors and
verification failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as verify_mod
from .cuts import enumerate_cuts
from .enumeration import (
    DEFAULT_SIZE_LIMIT,
    SizeLimitError,
    check_size,
    forests_of_class,
)
from .forest import (
    ColorTable,
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


class CliError(ValueError):
    """Configuration problems the parser cannot catch (exit code 1)."""


def _parse_weight_list(text: str) -> list[tuple[str, int]]:
    pairs = []
    for piece in text.split(","):
        name, eq, value = piece.partition("=")
        name, value = name.strip(), value.strip()
        if not eq or not value.isdecimal():
            raise CliError(
                f"bad weight entry {piece!r}; expected name=positive-integer"
            )
        if int(value) < 1:
            raise CliError(f"weight for {name!r} must be positive")
        pairs.append((name, int(value)))
    return pairs


def _settle(args) -> None:
    """Parse the common flags in place: ``args.colors`` becomes a
    ColorTable (or None), ``args.weights`` a tuple in color order (or
    None), and a negative ``--max-vertices`` is refused."""
    colors = None
    if args.colors:
        colors = ColorTable(
            name.strip() for name in args.colors.split(",")
        )
    weights = None
    if args.weights:
        pairs = _parse_weight_list(args.weights)
        by_name = dict(pairs)
        if len(by_name) != len(pairs):
            raise CliError("duplicate color in --weights")
        if colors is None:
            colors = ColorTable(by_name)
        if set(by_name) != set(colors.names):
            raise CliError(
                "--weights must assign exactly the declared colors "
                f"({','.join(colors.names)})"
            )
        weights = tuple(by_name[name] for name in colors.names)
    if args.max_vertices is not None and args.max_vertices < 0:
        raise CliError("--max-vertices must be non-negative")
    args.colors, args.weights = colors, weights


def _need_colors(args) -> ColorTable:
    if args.colors is None:
        raise CliError("--colors (or --weights) is required for this command")
    return args.colors


def _weights(args) -> tuple[int, ...]:
    return args.weights or (1,) * len(_need_colors(args))


def _forests(args, *texts) -> list:
    """Parse forest arguments, refusing a total over the size limit."""
    colors = _need_colors(args)
    forests = [parse_forest(text, colors) for text in texts]
    total = sum(forest.size for forest in forests)
    check_size("input", total, args.max_vertices)
    return forests


def _compositions(args, *texts) -> list:
    """Parse composition arguments, refusing a total degree over the limit."""
    nc = len(_need_colors(args))
    comps = [parse_composition(text, nc) for text in texts]
    total = sum(sum(part) for comp in comps for part in comp)
    check_size("input", total, args.max_vertices)
    return comps


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        for line in lines:
            print(line)


# --- key renderers: (key, colors) -> (text of the key, class of the key) ---


def _forest_key(forest, colors: ColorTable):
    return format_forest(forest, colors), k0_class(forest, len(colors))


def _word_key(word, colors: ColorTable):
    return format_word(word), word_degree(word, len(colors))


def _composition_key(comp, colors: ColorTable):
    return format_composition(comp), word_degree(comp, len(colors))


def _pairs_of(render):
    """Renderer of tensor keys ``(left, right)``, each side by ``render``."""

    def render_pair(pair, colors: ColorTable):
        (left, a), (right, b) = (render(key, colors) for key in pair)
        return f"{left}(x){right}", add_classes(a, b)

    return render_pair


def _run_element(args) -> int:
    """Compute a row of _ELEMENT_COMMANDS and print the element it yields."""
    colors = _need_colors(args)
    elem = args.compute(args)
    rows = sorted((args.render(k, colors), c) for k, c in elem.terms.items())
    terms = {text: str(c) for (text, _), c in rows}
    classes = {cls for (_, cls), _ in rows}
    degree = list(classes.pop()) if len(classes) == 1 else None
    lines = [f"{c} {text}" for text, c in terms.items()] or ["0"]
    _emit(args, {"terms": terms, "degree": degree}, lines)
    return 0


# --- the command table -----------------------------------------------------


def _arg(name: str, help_text: str, **keywords):
    return name, dict(keywords, help=help_text)


def _req(flag: str, help_text: str, **keywords):
    return flag, dict(keywords, required=True, help=help_text)


_EXPR = _arg("expr", "forest expression")
_CLASS = _req("--class", "class vector (2,1)", dest="class_vec")
_N = _req("--n", "total weight", type=int)

# Every command whose result is one element of an algebra, one row each:
# (group, name, help, arguments, compute(args), key renderer).
_ELEMENT_COMMANDS = (
    ("hall", "mul", "delta_A * delta_B",
     [_arg("left", "forest expression"), _arg("right", "forest expression")],
     lambda a: hall_mul(*map(delta, _forests(a, a.left, a.right))),
     _forest_key),
    ("hall", "comul", "coproduct of delta_A", [_EXPR],
     lambda a: hall_comul(delta(*_forests(a, a.expr))),
     _pairs_of(_forest_key)),
    ("hall", "kappa", "class characteristic function", [_CLASS],
     lambda a: kappa(parse_class(a.class_vec, len(a.colors)),
                     a.max_vertices),
     _forest_key),
    ("hall", "antipode", "antipode of delta_A", [_EXPR],
     lambda a: antipode(delta(*_forests(a, a.expr)), a.max_vertices),
     _forest_key),
    ("nsym", "rho", "image of a word in the Hall algebra",
     [_req("--word", "word such as (1,1)|(1,0); 1 = unit")],
     lambda a: rho(LinComb.basis(parse_word(a.word, len(a.colors))),
                   a.max_vertices),
     _forest_key),
    ("nsym", "js", "weight-n generator sum", [_N],
     lambda a: js(a.n, _weights(a), a.max_vertices),
     _word_key),
    ("nsym", "rhojs", "rho of the weight-n sum", [_N],
     lambda a: rho_js(a.n, _weights(a), a.max_vertices),
     _forest_key),
    ("qsym", "shuffle", "quasi-shuffle product",
     [_arg("left", "composition such as Z[(1,0)]"),
      _arg("right", "composition such as Z[(0,1),(2,0)]")],
     lambda a: quasi_shuffle(
         *map(LinComb.basis, _compositions(a, a.left, a.right))),
     _composition_key),
    ("qsym", "deconcat", "deconcatenation coproduct",
     [_arg("expr", "composition such as Z[(1,0),(0,1)]")],
     lambda a: deconcat(LinComb.basis(*_compositions(a, a.expr))),
     _pairs_of(_composition_key)),
    ("qsym", "rhot", "flag expansion of a forest",
     [_req("--forest", "forest expression")],
     lambda a: rho_t(*_forests(a, a.forest), len(a.colors), a.max_vertices),
     _composition_key),
)


# --- the other commands ----------------------------------------------------


def _cmd_forest_normalize(args) -> int:
    colors = _need_colors(args)
    forest = parse_forest(args.expr, colors)
    text = format_forest(forest, colors)
    payload = {
        "forest": text,
        "class": list(k0_class(forest, len(colors))),
        "size": forest.size,
    }
    _emit(args, payload, [text])
    return 0


def _cmd_forest_class(args) -> int:
    colors = _need_colors(args)
    forest = parse_forest(args.expr, colors)
    alpha = k0_class(forest, len(colors))
    _emit(
        args,
        {"class": list(alpha), "size": forest.size},
        [format_class(alpha)],
    )
    return 0


def _fmt_cut(masks) -> list:
    """Per component "full", or the preorder indices of the cut edges."""
    return [
        "full"
        if mask & 1
        else [i for i in range(mask.bit_length()) if mask >> i & 1]
        for mask in masks
    ]


def _cmd_cuts_list(args) -> int:
    colors = _need_colors(args)
    (forest,) = _forests(args, args.expr)
    rows = []
    for masks, pruned, root in enumerate_cuts(forest):
        rows.append(
            {
                "cut": _fmt_cut(masks),
                "pruned": format_forest(pruned, colors),
                "root": format_forest(root, colors),
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
    _emit(args, payload, lines)
    return 0


def _cmd_enumerate(args) -> int:
    colors = _need_colors(args)
    alpha = parse_class(args.class_vec, len(colors))
    forests = forests_of_class(alpha, limit=args.max_vertices)
    names = [format_forest(f, colors) for f in forests]
    payload = {"class": list(alpha), "forests": names, "count": len(names)}
    _emit(args, payload, names + [f"count={len(names)}"])
    return 0


def _fmt_side(side) -> str:
    if isinstance(side, dict):
        if not side:
            return "0"
        return " ".join(f"{k}={v}" for k, v in side.items())
    return str(side)


def _cmd_verify(args) -> int:
    colors = _need_colors(args)
    bound = 3 if args.max_vertices is None else args.max_vertices
    if args.suite == "all":
        reports = verify_mod.run_all(colors, bound, args.weights)
    else:
        reports = [
            verify_mod.run_suite(args.suite, colors, bound, args.weights)
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
        "weights": list(args.weights) if args.weights else None,
        "suites": reports,
        "pass": not total_failures,
    }
    _emit(args, payload, lines)
    return 0 if not total_failures else 2


# --- parser ----------------------------------------------------------------

_GROUPS = {
    "forest": "parse and normalize forests",
    "cuts": "admissible cuts",
    "hall": "Hall algebra in the delta basis",
    "nsym": "noncommutative symmetric functions on class words",
    "qsym": "quasisymmetric functions on class compositions",
}


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
    groups = {}

    def leaf(group, name, help_text, arguments, **defaults):
        if group is None:
            sub = top
        elif group in groups:
            sub = groups[group]
        else:
            sub = groups[group] = top.add_parser(
                group, help=_GROUPS[group]
            ).add_subparsers(dest="action", required=True)
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(**defaults)

    leaf("forest", "normalize", "canonical form", [_EXPR],
         func=_cmd_forest_normalize)
    leaf("forest", "class", "per-color vertex counts", [_EXPR],
         func=_cmd_forest_class)
    leaf("cuts", "list", "all admissible cuts", [_EXPR], func=_cmd_cuts_list)
    leaf(None, "enumerate", "forests of a given class", [_CLASS],
         func=_cmd_enumerate)
    for group, name, help_text, args, compute, render in _ELEMENT_COMMANDS:
        leaf(group, name, help_text, args, func=_run_element,
             compute=compute, render=render)
    suites = [*verify_mod.SUITE_NAMES, "all"]
    leaf(None, "verify", "run exact identity suites",
         [_arg("suite", "which suite to run", choices=suites)],
         func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _settle(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so that the
        # interpreter's last flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except SizeLimitError as exc:
        print(f"error: {exc} (raise with --max-vertices)", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # The algebra recurses once per tree level (parsing does not).
        print("error: input is nested too deeply to process", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
