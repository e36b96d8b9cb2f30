"""One round of one workload, in a fresh process with cold caches.

Reads a JSON job from standard input, imports ``foresthall`` from the given
source directory and parses the inputs.  Set-up time runs from ``launched``,
the parent's clock reading just before it started this process, to the end
of parsing.  Then the worker runs the operations one at a time, checks every
output against the benchmark's own oracle and prints one JSON result line.
Run by ``run.py``; by hand::

    echo '{"workload": "rhot-forests", "inputs": [[[-1, 0, -1], [0, 1, 0]]],
           "src": "src", "trace": false, "check_seed": "0", "launched": 0}' \
        | python3 benchmarks/worker.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402  (the benchmark's own modules, next to this file)
import inputs  # noqa: E402
import tracing  # noqa: E402

VERIFY_ARGV = [
    "verify", "all", "--colors", ",".join(inputs.COLORS),
    "--max-vertices", str(checks.VERIFY_BOUND), "--json",
]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _prepare(workload, items, fh):
    """The program's parse of each input's text, and the operation to time.

    ``items`` are the benchmark's own inputs: words as lists of letters,
    forests as ``[parents, colors]``; the program sees only their text.
    """
    colors = fh.ColorTable(inputs.COLORS)
    ncolors = len(colors)
    if workload == "rho-words":
        parsed = [fh.parse_word(inputs.format_word(w), ncolors) for w in items]
        return parsed, lambda w: fh.rho(fh.LinComb.basis(w))
    if workload == "rhot-forests":
        parsed = [
            fh.parse_forest(inputs.format_parent_forest(p, c), colors)
            for p, c in items
        ]
        return parsed, lambda f: fh.rho_t(f, ncolors)
    if workload == "verify-all":
        from foresthall import cli

        def verify(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        return [VERIFY_ARGV] * len(items), verify
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import foresthall as fh

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    workload, items = job["workload"], job["inputs"]
    parsed, operation = _prepare(workload, items, fh)
    setup = time.time() - job["launched"]

    times, done, results = [], [], []
    clock = time.perf_counter
    first = clock()
    for item, value in zip(items, parsed):
        start = clock()
        try:
            result = operation(value)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            continue
        times.append(clock() - start)
        done.append(item)
        results.append(result)
    wall = clock() - first
    peak = _peak_rss_mib()

    out = {
        "setup_s": setup,
        "wall_s": wall,
        "op_s": times,
        "failed": len(items) - len(done),
        "peak_rss_mib": peak,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if job.get("trace_out"):
            tracer.write(job["trace_out"])
    table = fh.ColorTable(inputs.COLORS)
    out["errors"] = checks.check(
        workload, done, results, job["check_seed"],
        lambda text: fh.parse_forest(text, table),
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # Skip tearing down the program's memos; the parent needs only the line.
    os._exit(code)
