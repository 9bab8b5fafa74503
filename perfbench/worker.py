"""One timed run in a fresh process: the calls ``gsmote run`` makes for one
seed (``load_graph`` -> ``make_imbalanced_split`` -> ``trainer.train``),
then the output checks.

    python3 perfbench/worker.py --data DIR --workload NAME --train-seed N \
        --trace 0|1 [--toy]

Prints one JSON object as its last line. ``run.py`` starts it with
``src`` on ``PYTHONPATH`` and the thread counts pinned.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time

from gsmote import trainer
from gsmote.graph import load_graph, make_imbalanced_split

from cora import graph_stats
from spans import Tracer
from workloads import TOY_CONFIG, WORKLOADS


def check_outputs(result, gsmote: bool) -> list[str]:
    """Reasons this run's outputs are wrong; empty when they pass.
    ``gsmote`` variants must add synthetic and mixed nodes every epoch."""
    problems = []
    for row in result.history:
        for key, value in row.items():
            if key.startswith("loss_") and not math.isfinite(value):
                problems.append(f"epoch {row['epoch']}: {key} = {value}")
    for i, value in enumerate(result.pretrain_losses):
        if not math.isfinite(value):
            problems.append(f"pretrain step {i + 1}: loss = {value}")
    for split in ("validation", "test"):
        report = getattr(result, split)
        for key in ("accuracy", "macro_auc", "macro_f"):
            value = getattr(report, key)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{split} {key} = {value} outside [0, 1]")
    if gsmote:
        for row in result.history:
            if row["n_smote"] == 0 or row["n_mixed"] == 0:
                problems.append(f"epoch {row['epoch']}: n_smote="
                                f"{row['n_smote']}, n_mixed={row['n_mixed']}")
    return problems


def run(data: str, workload: str, train_seed: int, traced: bool,
        toy: bool) -> dict:
    spec = WORKLOADS[workload]
    overrides = {**spec.config, **(TOY_CONFIG if toy else {})}
    config = trainer.ExperimentConfig(**overrides, seed=train_seed)
    config.validate()

    tracer = Tracer() if traced else None
    load, split = load_graph, make_imbalanced_split
    if traced:
        load = tracer.span("graph.load_graph", load)
        split = tracer.span("graph.make_imbalanced_split", split)
        tracer.install(trainer)

    start = time.perf_counter()
    graph = load(data, normalize_features=config.normalize_features)
    masks = split(graph, minority_count=config.minority_count,
                  imbalance_ratio=config.imbalance_ratio,
                  majority_train_size=config.majority_train_size,
                  seed=train_seed, val_fraction=config.val_fraction)
    setup_s = time.perf_counter() - start

    start = time.perf_counter()
    result = trainer.train(config, graph, masks)
    run_s = time.perf_counter() - start

    steps = len(result.history) + len(result.pretrain_losses)
    out = {
        "train_seed": train_seed,
        "traced": traced,
        "setup_s": setup_s,
        "run_s": run_s,
        "steps": steps,
        "step_ms": 1e3 * run_s / steps,
        "pretrain_steps": len(result.pretrain_losses),
        "epochs": len(result.history),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_macro_f": result.test.macro_f,
        "test_macro_auc": result.test.macro_auc,
        "test_accuracy": result.test.accuracy,
        "val_macro_f": result.validation.macro_f,
        "best_epoch": result.best_epoch,
        "first_loss_total": result.history[0]["loss_total"],
        "last_loss_total": result.history[-1]["loss_total"],
        "graph": graph_stats(graph.adjacency, graph.features, graph.labels),
        "problems": check_outputs(
            result, config.variant in trainer.GSMOTE_VARIANTS),
    }
    if traced:
        out["layers"] = tracer.metrics()
        out["per_epoch"] = tracer.per_epoch()
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--train-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    out = run(args.data, args.workload, args.train_seed, bool(args.trace),
              args.toy)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
