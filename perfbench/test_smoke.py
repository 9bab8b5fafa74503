"""Toy-size smoke test of the benchmark (63-node graph, 3 epochs).

    python3 -m pytest perfbench/test_smoke.py -q

It lies outside the repository's tier-1 ``testpaths``, so the default test
run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_lists_the_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    done = bench(workload, 0)
    assert done.returncode == 0, done.stderr
    report, result = (json.loads(x) for x in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= WORKLOADS[workload].train_seeds
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert report["test_macro_f"]["unit"] == "1"
    assert report["graph"]["n"] == 63
    assert report["environment"]["blas_threads"] == 1
    for run in report["runs"]:
        assert isinstance(run["last_loss_total"], float)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    done = bench(workload, 1)
    assert done.returncode == 0, done.stderr
    report, result = (json.loads(x) for x in done.stdout.splitlines()[-2:])
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    untraced, traced = report["runs"][:2]
    assert traced["traced"] and not untraced["traced"]
    assert traced["test_macro_f"] == untraced["test_macro_f"]
    assert traced["last_loss_total"] == untraced["last_loss_total"]
    counts = (metrics["edgegen.edge_loss.calls"],
              metrics["smote.synthetic_nodes"], metrics["mixup.mixed_nodes"])
    if WORKLOADS[workload].config["variant"] != "origin":
        assert all(c > 0 for c in counts)
    else:
        assert counts == (0, 0, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("cora_origin", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
