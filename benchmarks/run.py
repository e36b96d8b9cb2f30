"""The foresthall benchmark: one command, three workloads, checked outputs.

    python3 benchmarks/run.py --workload rho-words --seed 1 --trace 0

Run from the root of a checkout.  The seed fixes the inputs; each round runs
them in a fresh worker process (``worker.py``) with cold caches, one worker
at a time, and rounds repeat while the next one is expected to end within
``--seconds``.  Every output is checked against the benchmark's own oracle.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` one
untraced and one traced round give the per-layer metrics and the tracing
overhead, and the spans are written under ``.bench_out/``.  ``--workload
all`` runs every workload in turn.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402

WORKLOADS = ("rho-words", "rhot-forests", "verify-all")
# Rounds repeat the same inputs, so the pooled operation times hold one block
# of repeats per input.  With a count of 5 mod 10 the median and the 90th
# percentile fall inside a block, not on the edge between two blocks, where
# they would be the slowest or the fastest repeat of one input.
WORDS_PER_ROUND = 65
FORESTS_PER_ROUND = 35
WORKER_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The program could not be run, or a worker did not finish."""


def make_inputs(workload: str, seed: int) -> list:
    """The round's inputs, as JSON-ready lists."""
    if workload == "rho-words":
        return [
            [list(letter) for letter in word]
            for word in inputs.fixed_words(WORDS_PER_ROUND)
        ]
    if workload == "rhot-forests":
        forests = inputs.random_forests(seed, FORESTS_PER_ROUND)
        return [[parents, colors] for parents, colors in forests]
    if workload == "verify-all":
        return [None]
    raise BenchmarkError(f"unknown workload {workload!r}")


def run_round(workload, items, check_seed, traced, trace_out=None) -> dict:
    """One worker process: set-up time, op times, peak RSS, check errors.

    ``check_seed`` picks the coefficients the checks recompute.
    """
    job = {
        "workload": workload,
        "inputs": items,
        "src": SRC,
        "trace": traced,
        "trace_out": trace_out,
        "check_seed": check_seed,
    }
    env = dict(os.environ, PYTHONHASHSEED="0")
    job["launched"] = time.time()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError(
            f"{workload} worker ran over {WORKER_TIMEOUT_S} s"
        ) from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} worker failed (exit {proc.returncode})"
        )
    return json.loads(lines[-1])


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seed, seconds) -> dict:
    items = make_inputs(workload, seed)
    started = time.perf_counter()
    rounds = [run_round(workload, items, f"{seed}:0", False)]
    while True:
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(rounds) > seconds:
            break
        check_seed = f"{seed}:{len(rounds)}"
        rounds.append(run_round(workload, items, check_seed, False))
    ops = [t for r in rounds for t in r["op_s"]]
    metrics = {
        "setup_s": _metric(rounds[0]["setup_s"], "s"),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in rounds), "s"),
        "op_p50_ms": _metric(1000 * statistics.median(ops), "ms"),
        "op_p90_ms": _metric(1000 * percentile(ops, 0.9), "ms"),
        "peak_rss_mib": _metric(
            statistics.median(r["peak_rss_mib"] for r in rounds), "MiB"
        ),
    }
    return _result(rounds, metrics)


def run_traced(workload, seed) -> dict:
    items = make_inputs(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.json")
    plain = run_round(workload, items, f"{seed}:0", False)
    traced = run_round(workload, items, f"{seed}:1", True, spans)
    metrics = {
        name: _metric(value, _unit(name))
        for name, value in traced["layers"].items()
    }
    metrics["trace.overhead_s"] = _metric(
        traced["wall_s"] - plain["wall_s"], "s"
    )
    return _result([plain, traced], metrics)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _result(rounds, metrics) -> dict:
    errors = [e for r in rounds for e in r["errors"]]
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(len(r["op_s"]) + r["failed"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def _report(workload, result) -> None:
    print(
        f"{workload}: correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "foresthall", "__init__.py")):
        print(f"error: no foresthall package under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile first, so that set-up time is never compile time.
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: the foresthall sources do not compile", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = (
                run_traced(workload, args.seed)
                if args.trace
                else run_untraced(workload, args.seed, args.seconds)
            )
            _report(workload, results[workload])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m
                for w, r in results.items()
                for name, m in r["metrics"].items()
            },
        }
    os.makedirs(OUT, exist_ok=True)
    with open(
        os.path.join(
            OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
        ),
        "w",
        encoding="utf-8",
    ) as out:
        json.dump(final, out, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
