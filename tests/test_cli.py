"""CLI surface: output text, JSON schema, exit codes, determinism."""

import argparse
import itertools
import json
import os
import pathlib
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import foresthall.hall
from foresthall.cli import build_parser, main
from foresthall.forest import ColorTable, parse_forest
from foresthall.linear import LinComb
from foresthall.qsym import format_composition, parse_composition


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_forest_normalize(capsys):
    code, out, err = _run(
        capsys, "forest", "normalize", "b + a[ b , a ]", "--colors", "a,b"
    )
    assert code == 0
    assert out == "a[a,b]+b\n"
    assert err == ""


def test_forest_normalize_json(capsys):
    code, out, _ = _run(
        capsys, "forest", "normalize", "a[b,a]", "--colors", "a,b", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"forest": "a[a,b]", "class": [2, 1], "size": 3}


def test_forest_class(capsys):
    code, out, _ = _run(capsys, "forest", "class", "a[b,a]", "--colors", "a,b")
    assert code == 0
    assert out == "(2,1)\n"


def test_cuts_list(capsys):
    code, out, _ = _run(capsys, "cuts", "list", "a[b]", "--colors", "a,b")
    assert code == 0
    assert out.splitlines() == [
        "b | a | {1}",
        "0 | a[b] | {}",
        "a[b] | 0 | full",
        "count=3",
    ]


def test_qsym_rhot_multiplicity(capsys):
    code, out, _ = _run(
        capsys, "qsym", "rhot", "--forest", "a+a", "--colors", "a"
    )
    assert code == 0
    assert out == "2 Z[(1),(1)]\n1 Z[(2)]\n"
    # --max-vertices raises the limit of the flag expansion too; a chain's
    # flags are the 2**12 compositions of 13
    chain = "a[" * 12 + "a" + "]" * 12
    code, out, err = _run(
        capsys, "qsym", "rhot", "--forest", chain, "--colors", "a",
        "--max-vertices", "13",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 4096
    assert "1 Z[(13)]" in lines


def test_enumerate(capsys):
    code, out, _ = _run(
        capsys, "enumerate", "--class", "(3)", "--colors", "a"
    )
    assert code == 0
    assert out.splitlines() == [
        "a+a+a",
        "a+a[a]",
        "a[a,a]",
        "a[a[a]]",
        "count=4",
    ]


def test_hall_mul(capsys):
    code, out, _ = _run(capsys, "hall", "mul", "a", "a", "--colors", "a")
    assert code == 0
    assert out == "2 a+a\n1 a[a]\n"


def test_hall_kappa_json_schema(capsys):
    code, out, _ = _run(
        capsys, "hall", "kappa", "--class", "(1,1)", "--colors", "a,b",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == [1, 1]
    assert payload["terms"] == {"a+b": "1", "a[b]": "1", "b[a]": "1"}
    # every key parses back to a forest; every value parses as a rational
    colors = ColorTable(("a", "b"))
    for key, value in payload["terms"].items():
        parse_forest(key, colors)
        Fraction(value)


def test_hall_comul(capsys):
    code, out, _ = _run(capsys, "hall", "comul", "a+b", "--colors", "a,b")
    assert code == 0
    assert sorted(out.splitlines()) == [
        "1 0(x)a+b",
        "1 a(x)b",
        "1 a+b(x)0",
        "1 b(x)a",
    ]


def test_hall_antipode(capsys):
    code, out, _ = _run(capsys, "hall", "antipode", "a+a", "--colors", "a")
    assert code == 0
    assert out == "1 a+a\n1 a[a]\n"


def test_nsym_rho(capsys):
    code, out, _ = _run(
        capsys, "nsym", "rho", "--word", "(1,1)", "--colors", "a,b"
    )
    assert code == 0
    assert out == "1 a+b\n1 a[b]\n1 b[a]\n"


def test_nsym_js_weights_imply_colors(capsys):
    code, out, _ = _run(capsys, "nsym", "js", "--n", "2", "--weights", "a=1,b=2")
    assert code == 0
    assert out == "1 (0,1)\n1 (2,0)\n"


def test_nsym_rhojs(capsys):
    code, out, _ = _run(capsys, "nsym", "rhojs", "--n", "2", "--colors", "a")
    assert code == 0
    assert out == "1 a+a\n1 a[a]\n"


def test_qsym_shuffle(capsys):
    code, out, _ = _run(
        capsys,
        "qsym",
        "shuffle",
        "Z[(1,0)]",
        "Z[(0,1),(2,0)]",
        "--colors",
        "a,b",
    )
    assert code == 0
    assert sorted(out.splitlines()) == [
        "1 Z[(0,1),(1,0),(2,0)]",
        "1 Z[(0,1),(2,0),(1,0)]",
        "1 Z[(0,1),(3,0)]",
        "1 Z[(1,0),(0,1),(2,0)]",
        "1 Z[(1,1),(2,0)]",
    ]


def test_qsym_deconcat(capsys):
    code, out, _ = _run(
        capsys, "qsym", "deconcat", "Z[(1,0),(0,1)]", "--colors", "a,b"
    )
    assert code == 0
    assert sorted(out.splitlines()) == [
        "1 Z[(1,0),(0,1)](x)Z[]",
        "1 Z[(1,0)](x)Z[(0,1)]",
        "1 Z[](x)Z[(1,0),(0,1)]",
    ]


def test_qsym_rhot_json(capsys):
    code, out, _ = _run(
        capsys, "qsym", "rhot", "--forest", "a[b,a]", "--colors", "a,b",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == [2, 1]
    assert payload["terms"] == {
        "Z[(2,1)]": "1",
        "Z[(0,1),(2,0)]": "1",
        "Z[(1,0),(1,1)]": "1",
        "Z[(1,1),(1,0)]": "1",
        "Z[(1,0),(0,1),(1,0)]": "1",
        "Z[(0,1),(1,0),(1,0)]": "1",
    }
    for key in payload["terms"]:
        assert format_composition(parse_composition(key, 2)) == key


GOLDEN = pathlib.Path(__file__).parent / "golden"


# One case for each leaf command, and a second one for verify all.
LEAF_GOLDEN = [
    (
        "forest_normalize",
        ["forest", "normalize", "b + a[b, a ]", "--colors", "a,b"],
    ),
    ("forest_class", ["forest", "class", "a[b,a]+b", "--colors", "a,b"]),
    ("cuts_list", ["cuts", "list", "a[b,a]+b", "--colors", "a,b"]),
    ("enumerate", ["enumerate", "--class", "(2,1)", "--colors", "a,b"]),
    ("hall_mul", ["hall", "mul", "a[b]", "a+b", "--colors", "a,b"]),
    ("hall_comul", ["hall", "comul", "a+a+b[a]", "--colors", "a,b"]),
    ("hall_kappa", ["hall", "kappa", "--class", "(2,1)", "--colors", "a,b"]),
    ("hall_antipode", ["hall", "antipode", "a+a+b", "--colors", "a,b"]),
    ("nsym_rho", ["nsym", "rho", "--word", "(1,0)|(1,1)", "--colors", "a,b"]),
    ("nsym_js", ["nsym", "js", "--n", "4", "--weights", "a=1,b=2"]),
    ("nsym_rhojs", ["nsym", "rhojs", "--n", "3", "--weights", "a=1,b=2"]),
    (
        "qsym_shuffle",
        ["qsym", "shuffle", "Z[(1,0),(0,1)]", "Z[(1,1)]", "--colors", "a,b"],
    ),
    (
        "qsym_deconcat",
        ["qsym", "deconcat", "Z[(1,0),(0,1),(2,0)]", "--colors", "a,b"],
    ),
    ("rhot", ["qsym", "rhot", "--forest", "a[b[a],b]+a", "--colors", "a,b"]),
    ("verify_all", ["verify", "all", "--colors", "a,b", "--max-vertices", "2"]),
    # the benchmark's verify-all bound, which pins every suite's checked count
    (
        "verify_all_4",
        ["verify", "all", "--colors", "a,b", "--max-vertices", "4"],
    ),
]


def _parser_paths(parser, prefix=()):
    """(command path, is a leaf) for ``parser`` and each of its commands."""
    subs = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not subs:
        return [(prefix, True)]
    paths = [(prefix, False)]
    for name, child in subs[0].choices.items():
        paths.extend(_parser_paths(child, prefix + (name,)))
    return paths


def test_every_leaf_has_a_golden_case():
    paths = _parser_paths(build_parser())
    leaves = {path for path, is_leaf in paths if is_leaf}
    covered = {
        tuple(argv[:k])
        for _, argv in LEAF_GOLDEN
        for k in (1, 2)
        if tuple(argv[:k]) in leaves
    }
    assert covered == leaves


@pytest.mark.parametrize(
    "name, argv", LEAF_GOLDEN, ids=[name for name, _ in LEAF_GOLDEN]
)
@pytest.mark.parametrize("json_out", [False, True])
def test_leaf_output_matches_golden(capsys, name, argv, json_out):
    suffix = "_json" if json_out else ""
    code, out, err = _run(capsys, *argv, *(["--json"] if json_out else []))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}{suffix}.out").read_text()


@pytest.mark.parametrize(
    "path",
    [path for path, _ in _parser_paths(build_parser())],
    ids=lambda path: " ".join(path) or "foresthall",
)
def test_help_matches_golden(capsys, monkeypatch, path):
    # argparse wraps help to the terminal width; fix it.  The files hold
    # the help as Python 3.11's argparse renders it.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*path, "--help"])
    assert exc.value.code == 0
    name = "_".join(("help",) + path)
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def test_golden_files_are_exactly_the_ones_read():
    # the leaf cases, one help page per parser path, and the failure
    # reports of tests/test_verify.py
    read = {
        f"{name}{suffix}.out"
        for name, _ in LEAF_GOLDEN
        for suffix in ("", "_json")
    }
    read |= {
        "_".join(("help",) + path) + ".out"
        for path, _ in _parser_paths(build_parser())
    }
    read.add("verify_failures.json")
    assert {path.name for path in GOLDEN.iterdir()} == read


def _readme_examples():
    """(command, output lines) for each ``$ foresthall`` example of README:
    the output runs to the next blank line or the end of the code block."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ foresthall "):
            shown = itertools.takewhile(
                lambda text: text and not text.startswith("```"),
                lines[i + 1 :],
            )
            examples.append((line.removeprefix("$ "), list(shown)))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "command, shown",
    README_EXAMPLES,
    ids=[command.partition("#")[0].rstrip() for command, _ in README_EXAMPLES],
)
def test_readme_example(capsys, command, shown):
    argv = shlex.split(command, comments=True)[1:]
    tail = None
    if "|" in argv:
        # the one piped example keeps the last lines: "| tail -N"
        pipe = argv.index("|")
        assert argv[pipe + 1] == "tail"
        tail = int(argv[pipe + 2].removeprefix("-"))
        argv = argv[:pipe]
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert (lines[-tail:] if tail else lines) == shown


@pytest.mark.parametrize(
    "argv, total",
    [
        (["qsym", "deconcat", "Z[(3),(4)]"], 7),
        (["qsym", "shuffle", "Z[(1),(1),(1)]", "Z[(1),(1),(1)]"], 6),
    ],
    ids=["deconcat", "shuffle"],
)
def test_qsym_size_guard(capsys, argv, total):
    code, out, err = _run(
        capsys, *argv, "--colors", "a", "--max-vertices", "2"
    )
    assert code == 1 and out == ""
    assert err == (
        f"error: input has {total} vertices, over the limit of 2 "
        "(raise with --max-vertices)\n"
    )


@pytest.mark.parametrize(
    "argv, out",
    [
        (["js", "--n", "14", "--weights", "a=2"], "1 (7)\n"),
        (
            ["js", "--n", "4", "--weights", "a=2", "--max-vertices", "3"],
            "1 (2)\n",
        ),
        (
            ["rhojs", "--n", "4", "--weights", "a=2", "--max-vertices", "3"],
            "1 a+a\n1 a[a]\n",
        ),
        # no class has these weights, so js is zero and nothing is over the
        # limit; both answer at once, without enumerating classes
        (["js", "--n", "25", "--weights", "a=2"], "0\n"),
        (["rhojs", "--n", "1000001", "--weights", "a=2,b=4"], "0\n"),
        # the largest weight no class has (Frobenius number of 1000, 1000001)
        (["js", "--n", "998999999", "--weights", "a=1000,b=1000001"], "0\n"),
    ],
    ids=[
        "js-14",
        "js-4-limit-3",
        "rhojs-4-limit-3",
        "js-25-no-class",
        "rhojs-odd-no-class",
        "js-frobenius-no-class",
    ],
)
def test_js_guard_counts_vertices_not_weight(capsys, argv, out):
    assert _run(capsys, "nsym", *argv) == (0, out, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--n", "26", "--weights", "a=2"],
            "the smallest class of weight 26 has 13 vertices",
        ),
        (["--n", "13", "--weights", "a=1,b=2"], "class (13,0) has 13 vertices"),
        (
            ["--n", "13000013", "--weights", "a=1000,b=1000001"],
            "the smallest class of weight 13000013 has 13 vertices",
        ),
    ],
    ids=["early", "exact", "early-large-weights"],
)
def test_js_size_guard(capsys, argv, message):
    code, out, err = _run(capsys, "nsym", "js", *argv)
    assert code == 1 and out == ""
    assert err == (
        f"error: {message}, over the limit of 12 (raise with --max-vertices)\n"
    )


DEEP_CHAIN = "a[" * 1499 + "a" + "]" * 1499


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_deep_chain_is_parsed_and_written(capsys, json_flag):
    # Parsing, formatting, interning and k0_class hold no recursion.
    code, out, err = _run(
        capsys, "forest", "normalize", DEEP_CHAIN, "--colors", "a", *json_flag
    )
    assert code == 0 and err == ""
    text = json.loads(out)["forest"] if json_flag else out.rstrip("\n")
    assert text == DEEP_CHAIN
    code, out, err = _run(
        capsys, "forest", "class", DEEP_CHAIN, "--colors", "a", *json_flag
    )
    assert code == 0 and err == ""
    assert out == ('{\n  "class": [\n    1500\n  ],\n  "size": 1500\n}\n'
                   if json_flag else "(1500)\n")


def test_deep_nesting_is_one_error_line(capsys):
    # Enumerating cuts recurses once per tree level.
    code, out, err = _run(
        capsys, "cuts", "list", DEEP_CHAIN, "--colors", "a",
        "--max-vertices", "1500",
    )
    assert code == 1 and out == ""
    assert err == "error: input is nested too deeply to process\n"


def test_verify_passes(capsys):
    code, out, _ = _run(
        capsys, "verify", "all", "--colors", "a,b", "--max-vertices", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("total:")
    assert lines[-1].endswith("PASS")
    assert all("FAIL" not in line for line in lines)


def test_verify_single_suite_json(capsys):
    code, out, _ = _run(
        capsys, "verify", "counts", "--colors", "a,b", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["bound"] == 3  # verify default
    assert [s["suite"] for s in payload["suites"]] == ["counts"]


def test_verify_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(foresthall.hall, "_delta_mul", lambda a, b: LinComb())
    code, out, _ = _run(
        capsys, "verify", "hall-oracle", "--colors", "a", "--max-vertices", "2"
    )
    assert code == 2
    assert "FAIL" in out


def test_deterministic_output(capsys):
    first = _run(capsys, "hall", "kappa", "--class", "(2,1)", "--colors", "a,b")
    second = _run(capsys, "hall", "kappa", "--class", "(2,1)", "--colors", "a,b")
    assert first == second
    third = _run(capsys, "verify", "theorem1", "--colors", "a,b", "--json")
    fourth = _run(capsys, "verify", "theorem1", "--colors", "a,b", "--json")
    assert third == fourth


# Each case names its own id, so removing a row renames no other.
# id -> (argv, the whole of stderr after "error: ")
DOMAIN_ERRORS = {
    # a malformed forest
    "argv0": (
        ["forest", "normalize", "a[", "--colors", "a"],
        "expected a color identifier, got end of input (at position 2)",
    ),
    # an unknown color
    "argv1": (
        ["forest", "normalize", "c", "--colors", "a,b"],
        "unknown color 'c' (at position 0)",
    ),
    # no --colors
    "argv2": (
        ["forest", "normalize", "a"],
        "--colors (or --weights) is required for this command",
    ),
    # a class over the size limit
    "argv3": (
        ["enumerate", "--class", "(13)", "--colors", "a"],
        "class (13) has 13 vertices, over the limit of 12"
        " (raise with --max-vertices)",
    ),
    # a class of the wrong length
    "argv4": (
        ["enumerate", "--class", "(1,2)", "--colors", "a"],
        "class vector has 2 entries, expected 1 (at position 0)",
    ),
    # a product over --max-vertices
    "argv5": (
        ["hall", "mul", "a[a]", "a", "--colors", "a", "--max-vertices", "2"],
        "input has 3 vertices, over the limit of 2"
        " (raise with --max-vertices)",
    ),
    # a zero weight
    "argv6": (
        ["nsym", "js", "--n", "2", "--weights", "a=0"],
        "weight for 'a' must be positive",
    ),
    # a color without a weight
    "argv7": (
        ["nsym", "js", "--n", "2", "--colors", "a,b", "--weights", "a=1"],
        "--weights must assign exactly the declared colors (a,b)",
    ),
    # a forest over --max-vertices
    "argv8": (
        ["qsym", "rhot", "--forest", "a", "--colors", "a",
         "--max-vertices", "0"],
        "input has 1 vertices, over the limit of 0"
        " (raise with --max-vertices)",
    ),
    # a malformed forest on another route
    "argv9": (
        ["qsym", "rhot", "--forest", "a[", "--colors", "a"],
        "expected a color identifier, got end of input (at position 2)",
    ),
    # an unknown color on another route
    "argv10": (
        ["cuts", "list", "b", "--colors", "a"],
        "unknown color 'b' (at position 0)",
    ),
    # a weight that str.isdigit accepts and int() refuses
    "argv11": (
        ["nsym", "js", "--n", "2", "--weights", "a=²"],
        "bad weight entry 'a=²'; expected name=positive-integer",
    ),
    # a repeated --weights color: the same message with or without --colors
    "argv12": (
        ["nsym", "js", "--n", "3", "--weights", "a=1,a=2"],
        "duplicate color in --weights",
    ),
    "negative-max-vertices": (
        ["forest", "normalize", "a", "--colors", "a", "--max-vertices", "-1"],
        "--max-vertices must be non-negative",
    ),
    "weight-without-value": (
        ["nsym", "js", "--n", "2", "--weights", "a"],
        "bad weight entry 'a'; expected name=positive-integer",
    ),
    "color-not-identifier": (
        ["forest", "normalize", "a", "--colors", "1a"],
        "invalid color identifier: '1a'",
    ),
    "repeated-color": (
        ["forest", "normalize", "a", "--colors", "a,a"],
        "duplicate color names in ('a', 'a')",
    ),
}


@pytest.mark.parametrize(
    "argv, message", DOMAIN_ERRORS.values(), ids=DOMAIN_ERRORS
)
def test_domain_errors_exit_one(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["hall", "kappa", "--colors", "a,b"])  # missing --class
    assert exc.value.code == 2


@pytest.mark.parametrize("module", ["foresthall.cli", "foresthall"])
def test_module_entry_point(module, package_env):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            module,
            "forest",
            "normalize",
            "b+a",
            "--colors",
            "a,b",
        ],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert result.returncode == 0
    assert result.stdout == "a+b\n"


def test_closed_stdout_exits_one_without_traceback(package_env):
    # the reader is gone before the first write, like `... | head -c 10`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "foresthall",
                "enumerate",
                "--class",
                "(5)",
                "--colors",
                "a",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=package_env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr
