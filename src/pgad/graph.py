"""Per-phase-slot TopK similarity graphs over learnable sensor embeddings.

One detected period is partitioned into `n_slots` equal phase bins; each
bin owns an independent N x d embedding matrix from which a directed
TopK cosine-similarity graph is built. Adjacency entry A[j, i] = 1 means
j is a selected in-neighbor of i; the diagonal stays zero because the
attention layer handles the self term explicitly.
"""

from __future__ import annotations

import numpy as np


def cosine_similarity(embedding: np.ndarray) -> np.ndarray:
    """Pairwise row-cosine matrix: symmetric, unit diagonal, values in [-1, 1]."""
    embedding = np.asarray(embedding, dtype=np.float64)
    norms = np.linalg.norm(embedding, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"embedding row {int(zero[0])} has zero norm")
    unit = embedding / norms[:, None]
    # einsum keeps each pair's dot product independent of row order,
    # so similarities are bit-stable under node permutation
    sim = np.einsum("id,jd->ij", unit, unit)
    sim = np.clip((sim + sim.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(sim, 1.0)
    return sim


def topk_adjacency(similarity: np.ndarray, k: int) -> np.ndarray:
    """Keep, per target column i, the k most similar source nodes j != i.

    Ties break toward the lower node index; the edge set at budget k is a
    prefix of the edge set at budget k + 1.
    """
    similarity = np.asarray(similarity)
    n = similarity.shape[0]
    if similarity.shape != (n, n):
        raise ValueError("similarity matrix must be square")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    adjacency = np.zeros((n, n))
    for i in range(n):
        col = similarity[:, i].copy()
        col[i] = -np.inf
        order = np.argsort(-col, kind="stable")
        adjacency[order[:k], i] = 1.0
    return adjacency
