"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run the benchmark in fresh processes, so each takes a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def files_of(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", ["recursion", "prover-batch"])
def test_generated_inputs_are_a_function_of_the_seed(tmp_path, workload):
    made = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.build_plan(workload, ROOT, seed, str(tmp_path / label))
        made[label] = files_of(tmp_path / label)
    assert made["a"] == made["b"]
    assert made["a"] != made["c"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_and_reports_repeat_exactly(workload):
    names = [m["name"] for m in spec()["per_layer"]]
    runs = [result_of(bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1"))
            for _ in range(2)]
    (detail_a, a), (detail_b, b) = runs
    assert a["correct"] and b["correct"], (detail_a["problems"], detail_b["problems"])
    assert list(a["metrics"]) == names
    counted = [n for n in names if a["metrics"][n]["unit"] in ("count", "bytes")]
    assert {n: a["metrics"][n]["value"] for n in counted} == {n: b["metrics"][n]["value"] for n in counted}
    assert detail_a["report_sha256"] == detail_b["report_sha256"]
    assert a["metrics"]["trace.coverage"]["value"] >= 0.95


def test_untraced_run_prints_every_end_to_end_metric():
    detail, result = result_of(bench("--workload", "inequality", "--seed", "3", "--seconds", "0", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    for metric in spec()["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    assert len(result["metrics"]) == len(spec()["end_to_end"])


def test_p90_is_reported_once_ten_verdicts_lie_beyond_it():
    detail, _ = result_of(bench("--workload", "prover-batch", "--seed", "3", "--seconds", "8", "--trace", "0"))
    assert detail["verdicts"] >= 100
    assert detail["verdict_ms.p90"]["unit"] == "ms" and detail["verdict_ms.p90"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "triangle", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# the verdict checks reject wrong answers


def test_triangle_check_rejects_a_lifted_counterexample_of_the_wrong_shape():
    form = {"kind": "thm", "status": "falsified", "proof": {
        "counterexamples": [{"top_binding": "((x . (257 1 257)))"}], "spurious_lifts": []}}
    assert workloads.check_triangle(form) == []
    form["proof"]["counterexamples"].append({"top_binding": "((x . (12 1 12)))"})
    assert workloads.check_triangle(form)


def test_triangle_check_rejects_a_test_counterexample_that_does_not_falsify():
    form = {"kind": "test?", "testing": {"counterexamples": ["((x . (1 300 300)))"]}}
    assert workloads.check_triangle(form) == []
    form["testing"]["counterexamples"].append("((x . (3 4 5)))")
    assert workloads.check_triangle(form)


def test_inequality_check_uses_exact_rationals():
    form = {"status": "falsified", "testing": {"counterexamples": ["((a . 1/2) (b . 1/2) (c . 1/8))"]}}
    assert workloads.check_inequality(form) == []
    form["testing"]["counterexamples"] = ["((a . 1) (b . 1) (c . 1))"]
    assert workloads.check_inequality(form)
    form["status"] = "admitted"
    assert workloads.check_inequality(form)


def test_prover_check_compares_with_the_known_answer():
    falsified = {"status": "falsified", "proof": {"counterexamples": [{}]}}
    proved = {"status": "proved", "proof": {"counterexamples": []}}
    assert workloads.prover_check(False)(falsified) == []
    assert workloads.prover_check(False)(proved)
    assert workloads.prover_check(True)(proved) == []
    assert workloads.prover_check(True)(falsified)


def test_recursion_check_rejects_erroring_trials():
    testing = {"counterexample_count": 0, "counterexamples": [], "erroring": 0, "first_error": None,
               "trials": workloads.RECURSION_TRIALS}
    form = {"status": "admitted", "testing": testing}
    assert workloads.check_recursion(form) == []
    testing["erroring"] = 1
    assert workloads.check_recursion(form)
