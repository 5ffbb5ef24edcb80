"""Per-phase-slot TopK similarity graphs over learnable sensor embeddings.

One detected period is partitioned into `n_slots` equal phase bins
(`slot_ids_for_windows`); each bin owns an independent N x d embedding
matrix from which `build_adjacencies` builds a directed TopK
cosine-similarity graph. Adjacency entry A[j, i] = 1 means j is a selected
in-neighbor of i; the diagonal stays zero because the attention layer
handles the self term explicitly.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError


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
    ranked = -np.asarray(similarity, dtype=np.float64)
    n = ranked.shape[0]
    if ranked.shape != (n, n):
        raise ValueError("similarity matrix must be square")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    # one stable sort ranks every column at once; +inf keeps a node off its own list
    np.fill_diagonal(ranked, np.inf)
    sources = np.argsort(ranked, axis=0, kind="stable")[:k]
    adjacency = np.zeros((n, n))
    adjacency[sources, np.arange(n)] = 1.0
    return adjacency


def build_adjacencies(params: dict[str, np.ndarray], n_slots: int, k: int) -> list[np.ndarray]:
    """TopK graph per phase slot from the current embeddings."""
    adjacencies = []
    for s in range(n_slots):
        try:
            sim = cosine_similarity(params[f"emb_{s}"])
        except ValueError as exc:
            raise DivergenceError(f"slot {s} embeddings degenerated: {exc}") from exc
        adjacencies.append(topk_adjacency(sim, k))
    return adjacencies


def slot_ids_for_windows(starts: np.ndarray, period: int, n_slots: int) -> np.ndarray:
    """Phase slot of each window; `starts` are absolute timestamps."""
    if period < 1 or n_slots < 1:
        raise ValueError("period and n_slots must be positive")
    return ((starts % period) * n_slots) // period
