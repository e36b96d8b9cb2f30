"""The worker protocol, the traced run, and a checkout without the program."""

import os
import shutil
import subprocess
import sys

import run

SMALL = {
    "rho-words": [[[1, 0], [1, 1]], [[2, 1]], [[1, 1], [1, 0], [0, 1]]],
    "rhot-forests": [[[-1, 0, -1, 2], [0, 1, 0, 1]], [[-1, -1, 1], [1, 0, 0]]],
}


def test_rho_words_trace_calls_no_flags():
    result = run.run_round("rho-words", SMALL["rho-words"], 1, True)
    layers = result["layers"]
    assert result["errors"] == [] and result["failed"] == 0
    assert layers["cuts.enumerate_flags_calls"] == 0
    assert layers["qsym.rho_t_calls"] == 0
    assert layers["nsym.rho_calls"] == 3
    assert layers["hall.hall_mul_calls"] > 0
    assert layers["cuts.count_cut_pairs_calls"] > 0
    assert 0 < layers["hall.graft_distinct_ratio"] <= 1


def test_rhot_forests_trace_calls_no_hall_product():
    result = run.run_round("rhot-forests", SMALL["rhot-forests"], 1, True)
    layers = result["layers"]
    assert result["errors"] == [] and result["failed"] == 0
    assert layers["hall.hall_mul_calls"] == 0
    assert layers["cuts.count_cut_pairs_calls"] == 0
    assert layers["qsym.rho_t_calls"] == 2
    assert layers["cuts.enumerate_flags_calls"] > 0
    assert layers["forest.k0_class_calls"] > 0


def test_self_times_do_not_exceed_the_round():
    result = run.run_round("rhot-forests", SMALL["rhot-forests"], 1, True)
    own = sum(v for k, v in result["layers"].items() if k.endswith("_s"))
    assert 0 < own <= result["wall_s"] + result["setup_s"]


def test_untraced_round_reports_times_and_memory():
    result = run.run_round("rhot-forests", SMALL["rhot-forests"], 1, False)
    assert len(result["op_s"]) == 2 and "layers" not in result
    assert result["setup_s"] > 0 and result["peak_rss_mib"] > 0


def test_percentile_is_nearest_rank():
    assert run.percentile([3, 1, 2], 0.9) == 3
    assert run.percentile(list(range(1, 101)), 0.9) == 90
    assert run.percentile([5], 0.5) == 5


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks")
    manifest = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(manifest):
        shutil.copy(manifest, tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "rho-words",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
