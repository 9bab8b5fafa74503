"""The benchmark's workloads, why each was chosen, and which end-to-end
metric each per-layer metric should move.

Every workload trains on the Cora-shaped graph from ``cora.py`` for a fixed
number of epochs (``patience=0``), so run length does not depend on the
data. All three use the mean aggregator. With the default sum aggregator,
threshold strips first wire each synthetic node to most of the graph and the
summed messages blow the first epochs up: on ``cora_gsmote_T_wide`` one
run's test macro-AUC then spreads over 0.49-0.91 and its macro-F over
0.06-0.61 between seeds, where the mean aggregator gives 0.99 and 0.77-0.97.
The edge-generator collapse still shows in ``edgegen.edges_per_synthetic``
and ``edgegen.wired_frac``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict               # ExperimentConfig fields on top of the defaults
    train_seeds: int           # distinct split/training seeds per benchmark run


COMMON = {"aggregator": "mean", "patience": 0}

WORKLOADS = {
    "cora_origin": Workload(
        why="plain GraphSAGE baseline: dense encoder, classifier, validation "
            "and backward carry the step; never calls the edge generator",
        config={**COMMON, "variant": "origin", "max_epochs": 100},
        train_seeds=6),
    "cora_gsmote_preO_mix": Workload(
        why="the paper's full method: pre-trained edge generator, soft "
            "strips and mixup; the n x n reconstruction loss dominates",
        config={**COMMON, "variant": "gsmote_preO", "mixup": "mix",
                "mix_insertion": "predicted", "max_epochs": 30},
        train_seeds=3),
    "cora_gsmote_T_wide": Workload(
        why="gsmote_T with heuristic mixup on 550 train nodes: thresholded "
            "strips, no pre-training, and the heaviest SMOTE/mixup sampling",
        config={**COMMON, "variant": "gsmote_T", "mixup": "mix",
                "mix_insertion": "heuristic", "majority_train_size": 100,
                "max_epochs": 30},
        train_seeds=4),
}

# per-layer metric -> (end-to-end metrics it should move, workloads where)
LAYER_MAP = {
    "edgegen.edge_loss": ("run_s, step_ms, peak_rss_mb",
                          "cora_gsmote_preO_mix (most), cora_gsmote_T_wide; "
                          "zero calls on cora_origin"),
    "autodiff.backward": ("step_ms", "all; largest on the gsmote workloads "
                          "(holds the reconstruction vjp and the W1 gradient)"),
    "autodiff.adam_step": ("step_ms", "all (small)"),
    "trainer.compute_losses": ("step_ms", "cora_origin (self time is the "
                               "encoder matmul)"),
    "trainer.train": ("run_s, peak_rss_mb", "gsmote workloads (self time is "
                      "the context build with the dense adjacency, init, "
                      "snapshots)"),
    "trainer.pretrain": ("run_s", "cora_gsmote_preO_mix only"),
    "trainer.predict_from_h1": ("step_ms", "cora_origin"),
    "trainer.predict": ("step_ms", "cora_origin"),
    "metrics.evaluate": ("step_ms", "cora_origin"),
    "gnn.sage_forward": ("step_ms", "cora_gsmote_T_wide, cora_origin"),
    "gnn.classify": ("step_ms", "cora_gsmote_T_wide, cora_origin"),
    "gnn.node_loss": ("step_ms", "cora_gsmote_T_wide, cora_origin"),
    "edgegen.soft_strip_value": ("step_ms", "cora_gsmote_preO_mix"),
    "edgegen.threshold_strip": ("step_ms", "cora_gsmote_T_wide"),
    "edgegen.assemble_augmented": ("step_ms", "both gsmote workloads"),
    "smote.oversample": ("step_ms", "cora_gsmote_T_wide"),
    "mixup.mix_nodes": ("step_ms", "cora_gsmote_T_wide (most), "
                        "cora_gsmote_preO_mix"),
    "mixup.mixed_strip": ("step_ms", "cora_gsmote_T_wide (most), "
                          "cora_gsmote_preO_mix"),
    "mixup.pseudo_labels": ("step_ms", "cora_gsmote_T_wide (most), "
                            "cora_gsmote_preO_mix"),
    "mixup.mix_loss": ("step_ms", "cora_gsmote_T_wide (most), "
                       "cora_gsmote_preO_mix"),
    "edgegen.edges_per_synthetic": ("test_macro_f, test_macro_auc",
                                    "gsmote workloads (edge-generator "
                                    "collapse)"),
    "edgegen.wired_frac": ("test_macro_f, test_macro_auc",
                           "gsmote workloads (edge-generator collapse)"),
    "graph.load_graph": ("setup_s", "all"),
    "graph.make_imbalanced_split": ("setup_s", "all"),
    "trace.overhead_frac": ("none", "all"),
}

# graph and config overrides of the toy-size smoke test (63 nodes)
TOY_GRAPH = {"class_sizes": (9,) * 7, "d": 40, "words": 4, "edges": 120}
TOY_CONFIG = {"max_epochs": 3, "pretrain_epochs": 3, "majority_train_size": 4}
