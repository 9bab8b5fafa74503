"""Seeded Cora-shaped graph generator owned by the benchmark.

The graph copies the published shape of the Cora citation network: 2708
papers, 1433 binary bag-of-words features with 18 words per paper (about
1.3 % dense), 7 classes with Cora's class sizes, and about 5.2k undirected
citation edges, most of them between papers of the same class. Nothing is
downloaded; the same seed always gives the same graph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# Cora's class sizes, in the sorted-class-name order `prepare_cora` uses
CORA_CLASS_SIZES = (298, 418, 818, 426, 217, 180, 351)
CORA_FEATURES = 1433
CORA_WORDS_PER_NODE = 18
CORA_EDGES = 5278
# share of citations that stay inside one class (Cora's edge homophily ~0.81)
HOMOPHILY = 0.81
# share of a paper's words drawn from its class topic rather than the
# background vocabulary; this sets how separable the classes are
TOPIC_WEIGHT = 0.8


def cora_shaped(seed: int, class_sizes=CORA_CLASS_SIZES, d: int = CORA_FEATURES,
                words: int = CORA_WORDS_PER_NODE, edges: int = CORA_EDGES):
    """Return ``(adjacency, features, labels)`` for one seed.

    ``adjacency`` is binary, symmetric and has no self-loops; ``features``
    is a dense 0/1 float array with exactly ``words`` ones per row.
    """
    rng = np.random.default_rng(seed)
    m = len(class_sizes)
    n = int(sum(class_sizes))
    labels = rng.permutation(np.repeat(np.arange(m), class_sizes)).astype(np.int64)

    # word distribution per class: a shared skewed background plus a topic
    background = rng.random(d) ** 3
    background /= background.sum()
    topics = rng.random((m, d)) ** 8
    topics /= topics.sum(axis=1, keepdims=True)
    word_p = (1.0 - TOPIC_WEIGHT) * background + TOPIC_WEIGHT * topics
    # weighted sampling without replacement: top-k of log p + Gumbel noise
    keys = np.log(word_p[labels]) + rng.gumbel(size=(n, d))
    picked = np.argpartition(-keys, words - 1, axis=1)[:, :words]
    features = np.zeros((n, d))
    features[np.arange(n)[:, None], picked] = 1.0

    # citations: uniform source, same-class target with prob HOMOPHILY
    members = [np.flatnonzero(labels == c) for c in range(m)]
    src = rng.integers(0, n, size=edges)
    same = rng.random(edges) < HOMOPHILY
    dst = np.empty(edges, dtype=np.int64)
    for i, (u, s) in enumerate(zip(src, same)):
        if s:
            pool = members[labels[u]]
        else:
            other = rng.choice(np.delete(np.arange(m), labels[u]))
            pool = members[other]
        dst[i] = pool[rng.integers(0, pool.size)]
    keep = src != dst
    rows = np.concatenate([src[keep], dst[keep]])
    cols = np.concatenate([dst[keep], src[keep]])
    adjacency = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                              shape=(n, n)).tocsr()
    adjacency.data[:] = 1.0
    return adjacency, features, labels


def graph_stats(adjacency, features, labels) -> dict:
    """Shape of a generated graph, recorded with every result."""
    n, d = features.shape
    return {
        "n": int(n),
        "d": int(d),
        "undirected_edges": int(adjacency.nnz // 2),
        "feature_density": float(np.count_nonzero(features) / (n * d)),
        "class_sizes": np.bincount(labels).tolist(),
    }
