"""Spans and counters recorded around the calls ``gsmote.trainer`` makes.

``Tracer.install`` replaces names in ``gsmote.trainer``'s namespace with
wrappers that time each call and return the wrapped function's result
unchanged, so a traced run trains the same model as an untraced one. No
source file is edited. A span's self time is its duration minus the time its
child spans took; spans nest strictly because training is single-threaded.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import numpy as np
from gsmote.autodiff import Value

# name in gsmote.trainer's namespace -> module label of its span
TRAINER_SPANS = {
    "train": "trainer", "pretrain": "trainer", "compute_losses": "trainer",
    "predict_from_h1": "trainer", "predict": "trainer",
    "evaluate": "metrics", "backward": "autodiff", "adam_step": "autodiff",
    "edge_loss": "edgegen", "soft_strip_value": "edgegen",
    "threshold_strip": "edgegen", "assemble_augmented": "edgegen",
    "sage_forward": "gnn", "classify": "gnn", "node_loss": "gnn",
    "oversample": "smote", "mix_nodes": "mixup", "mixed_strip": "mixup",
    "pseudo_labels": "mixup", "mix_loss": "mixup",
}
# spans the benchmark opens itself around the set-up calls
SETUP_SPANS = ("graph.load_graph", "graph.make_imbalanced_split")
SPANS = SETUP_SPANS + tuple(f"{m}.{a}" for a, m in TRAINER_SPANS.items())
# spans entered once per run report no call count
ONCE = SETUP_SPANS + ("trainer.train", "trainer.pretrain")
# counters reported as the median per call; the rest as the mean per call
MEDIAN_COUNTERS = ("smote.synthetic_nodes", "mixup.mixed_nodes",
                   "mixup.pseudo_label_frac", "trainer.pretrain.steps")
MEAN_COUNTERS = ("edgegen.edges_per_synthetic", "edgegen.wired_frac")


def strip_counts(strip) -> tuple[float, float]:
    """(edges per synthetic node, share of synthetic nodes with an edge)
    of a synthetic-to-real strip; an edge is any entry above zero."""
    s = strip.data if isinstance(strip, Value) else np.asarray(strip)
    if s.shape[0] == 0:
        return 0.0, 0.0
    wired = s > 0.0
    return float(wired.sum() / s.shape[0]), float(wired.any(axis=1).mean())


class Tracer:
    """In-memory spans and counters of one run."""

    def __init__(self):
        self._open: list[list[float]] = []  # child seconds per open span
        self.self_ms: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, list[float]] = defaultdict(list)

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records a span; ``observe(result)`` runs
        after the call to record counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += took
                self.self_ms[name].append((took - children[0]) * 1e3)
            if observe is not None:
                # counting is trace overhead: keep it out of the caller's self time
                start = time.perf_counter()
                observe(result)
                if self._open:
                    self._open[-1][0] += time.perf_counter() - start
            return result

        return wrapper

    def _count(self, name: str, value: float) -> None:
        self.counters[name].append(float(value))

    def _observe_strip(self, strip) -> None:
        edges, wired = strip_counts(strip)
        self._count("edgegen.edges_per_synthetic", edges)
        self._count("edgegen.wired_frac", wired)

    def _observe_pseudo(self, effective) -> None:
        # share of all nodes that carry a label after pseudo-labelling
        self._count("mixup.pseudo_label_frac", np.mean(effective >= 0))

    def install(self, trainer_module) -> None:
        """Wrap every TRAINER_SPANS name that ``trainer_module`` has."""
        observers = {
            "pretrain": lambda r: self._count("trainer.pretrain.steps",
                                              len(r)),
            "oversample": lambda r: self._count("smote.synthetic_nodes",
                                                len(r)),
            "mix_nodes": lambda r: self._count("mixup.mixed_nodes", len(r)),
            "pseudo_labels": self._observe_pseudo,
            "soft_strip_value": self._observe_strip,
            "threshold_strip": self._observe_strip,
        }
        for attr, module in TRAINER_SPANS.items():
            fn = getattr(trainer_module, attr, None)
            if fn is not None:
                setattr(trainer_module, attr, self.span(
                    f"{module}.{attr}", fn, observers.get(attr)))

    def metrics(self) -> dict:
        """Per-layer metrics of this run; a layer never called reports 0."""
        out = {}
        for name in SPANS:
            times = self.self_ms.get(name, [])
            key = "trainer.train.self_ms" if name == "trainer.train" \
                else f"{name}.ms"
            out[key] = statistics.median(times) if times else 0.0
            if name not in ONCE:
                out[f"{name}.calls"] = len(times)
        for name in MEDIAN_COUNTERS:
            values = self.counters.get(name)
            out[name] = statistics.median(values) if values else 0.0
        for name in MEAN_COUNTERS:
            values = self.counters.get(name)
            out[name] = statistics.fmean(values) if values else 0.0
        return out

    def per_epoch(self) -> dict:
        """Wiring counters in call order: one value per epoch."""
        return {name: self.counters.get(name, []) for name in MEAN_COUNTERS}
