"""Cora-shaped training benchmark for gsmote.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``. The seed makes a Cora-shaped graph (``cora.py``), which is written
once as a dataset directory with ``gsmote.graph.save_graph`` before any
timing. Then, for about ``--seconds`` seconds, a closed loop with a single
client starts one fresh process per run (``worker.py``), one after another.
Each makes the calls ``gsmote run`` makes for one split/training seed, so
``peak_rss_mb`` is that run's own high-water mark. Run ``i`` uses training
seed ``1000 * seed + i % k`` for the workload's ``k`` seeds; repeats of a
seed must reproduce its losses and metrics exactly.

``--trace 0`` reports the end-to-end metrics: medians over runs for the
times and memory, the mean over the ``k`` seeds for ``test_macro_auc``.
Test macro-F (mean over the ``k`` seeds) goes in the report line only: one
run's macro-F spreads 0.2-0.3 of its mean between seeds at this run length,
so a mean over the few seeds a run fits spreads close to the largest bound
the benchmark may set (0.25).
``--trace 1`` alternates untraced and traced runs of the same seed and
reports per-layer self times and counters (medians over traced runs) plus
``trace.overhead_frac``; a traced run must reproduce its untraced twin's
losses and test metrics exactly.

Every run's outputs are checked (``worker.check_outputs``). A run that
fails or fails a check counts in ``failed``; the others still report. The
line before the result holds the graph's stats, the environment and every
run's record; the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one BLAS thread: on 2 cores, 2-thread runs are faster but spread about
# twice as much between runs
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a whole benchmark run must end within 180 s
DEADLINE_S = 170.0
# fields a repeated seed, or a traced twin, must reproduce exactly
REPEATED = ("test_macro_f", "test_macro_auc", "first_loss_total",
            "last_loss_total")
UNITS = {"setup_s": "s", "run_s": "s", "step_ms": "ms", "peak_rss_mb": "MB",
         "test_macro_auc": "1", "ok_frac": "1", "test_macro_f": "1"}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env["GSMOTE_THREADS"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "GSMOTE_THREADS": 1,
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": list(THREAD_VARS),
    }


def write_dataset(seed: int, toy: bool, out_dir: Path) -> dict:
    """Generate the seed's graph, save it as a dataset directory, return its
    stats."""
    from gsmote.graph import AttributedGraph, save_graph

    from cora import cora_shaped, graph_stats
    from workloads import TOY_GRAPH

    adjacency, features, labels = cora_shaped(seed, **(TOY_GRAPH if toy else {}))
    graph = AttributedGraph(adjacency=adjacency, features=features,
                            labels=labels, num_classes=int(labels.max()) + 1)
    graph.validate()
    save_graph(graph, out_dir)
    return graph_stats(adjacency, features, labels)


def one_run(data: Path, workload: str, train_seed: int, traced: bool,
            toy: bool, timeout: float) -> dict:
    """Start one worker process and wait for it; a failed run is returned
    as ``{"train_seed": ..., "problems": [reason]}``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--data", str(data),
           "--workload", workload, "--train-seed", str(train_seed),
           "--trace", str(int(traced))] + (["--toy"] if toy else [])
    started = time.perf_counter()
    failed = {"train_seed": train_seed, "traced": traced}
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**failed, "problems": [f"timed out after {timeout:.0f} s"]}
    wall = time.perf_counter() - started
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        return {**failed, "problems": [
            f"exit code {done.returncode}: {tail[0]}"]}
    try:
        out = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {**failed, "problems": ["no result line"]}
    out["wall_s"] = wall
    return out


def mark_repeats(run: dict, first: dict | None) -> None:
    """Add a problem to ``run`` unless it reproduces ``first`` exactly."""
    if first is None or any(REPEATED[0] not in r for r in (run, first)):
        return
    for key in REPEATED:
        if run[key] != first[key]:
            run["problems"].append(
                f"{key} {run[key]!r} differs from {first[key]!r} of the "
                f"same seed")


def untraced_metrics(runs: list[dict], ok: list[dict]) -> dict:
    """End-to-end metrics, plus ``test_macro_f`` for the report line."""
    firsts = {}
    for r in ok:
        firsts.setdefault(r["train_seed"], r)
    values = {key: statistics.median(r[key] for r in ok)
              for key in ("setup_s", "run_s", "step_ms", "peak_rss_mb")}
    for key in ("test_macro_auc", "test_macro_f"):
        values[key] = statistics.fmean(r[key] for r in firsts.values())
    values["ok_frac"] = len(ok) / len(runs)
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def traced_metrics(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-layer metrics from (untraced, traced) pairs that passed."""
    values = {name: statistics.median(t["layers"][name] for u, t in pairs)
              for name in pairs[0][1]["layers"]}
    values["trace.overhead_frac"] = statistics.median(
        t["run_s"] / u["run_s"] - 1.0 for u, t in pairs)
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith((".calls", ".steps", "_nodes", "edges_per_synthetic")):
        return "count"
    return "1"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="63-node graph and 3 epochs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gsmote").is_dir():
        print(f"no gsmote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    # pin the benchmark's own BLAS threads before numpy loads
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    began = time.perf_counter()

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        data = work / "dataset"
        stats = write_dataset(args.seed, args.toy, data)
        seeds = [1000 * args.seed + i for i in range(spec.train_seeds)]
        runs: list[dict] = []
        pairs: list[tuple[dict, dict]] = []
        first: dict[int, dict] = {}
        start = time.perf_counter()
        durations: list[float] = []

        def launch(seed: int, traced: bool) -> dict:
            left = DEADLINE_S - (time.perf_counter() - began)
            run = one_run(data, args.workload, seed, traced, args.toy,
                          max(left, 1.0))
            if "graph" in run and run["graph"] != stats:
                run["problems"].append("loaded graph differs from the "
                                       "generated one")
            runs.append(run)
            return run

        i = 0
        while True:
            elapsed = time.perf_counter() - start
            needed = i < (1 if args.trace else spec.train_seeds)
            if not needed and (elapsed + statistics.median(durations)
                               > args.seconds):
                break
            if time.perf_counter() - began > DEADLINE_S - 5:
                break
            seed = seeds[i % len(seeds)]
            t0 = time.perf_counter()
            run = launch(seed, False)
            mark_repeats(run, first.get(seed))
            if not run["problems"]:
                first.setdefault(seed, run)
            if args.trace:
                twin = launch(seed, True)
                mark_repeats(twin, run)
                pairs.append((run, twin))
            durations.append(time.perf_counter() - t0)
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(ok)
    report = {"workload": args.workload, "why": spec.why, "seed": args.seed,
              "trace": args.trace, "graph": stats,
              "environment": environment(), "runs": runs}
    metrics = None
    if args.trace:
        passed = [(u, t) for u, t in pairs
                  if not u["problems"] and not t["problems"]]
        if passed:
            metrics = traced_metrics(passed)
    elif ok:
        metrics = untraced_metrics(runs, ok)
        report["test_macro_f"] = metrics.pop("test_macro_f")
    print(json.dumps(report))
    if metrics is None:
        print("no run passed its checks", file=sys.stderr)
        return 1
    covered = bool(args.trace) or all(s in first for s in seeds)
    print(json.dumps({"correct": failed == 0 and covered,
                      "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
