"""Recall@k by exhaustive cosine-similarity nearest-neighbor search.

Two protocols, told apart by the inputs: passing the same batch as queries
and gallery scores a single self-excluded set (a query never retrieves its
own index); distinct batches score a separate query/gallery split.
Similarities are accumulated in float64 and ties are broken by ascending
gallery index, so results are deterministic and order-stable.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .moments import EmbeddingBatch

__all__ = ["recall_at_k"]


def recall_at_k(
    queries: EmbeddingBatch, gallery: EmbeddingBatch, k_values
) -> dict[int, float]:
    """Fraction of queries whose k nearest gallery items include a label match.

    When gallery is queries (the same object) each query's own index is
    excluded from its candidates, so the effective gallery size is n - 1.
    Every requested k must be smaller than the effective gallery size.
    """
    ks = tuple(k_values)
    if not ks or any(k < 1 for k in ks) or list(ks) != sorted(ks):
        raise InvalidConfig(f"k values must be >= 1 and ascending, got {ks}")
    if queries.dim != gallery.dim:
        raise DimensionMismatch(f"query dim {queries.dim} != gallery dim {gallery.dim}")
    single = gallery is queries
    effective = gallery.n - 1 if single else gallery.n
    if ks[-1] >= effective:
        raise InvalidConfig(f"k={ks[-1]} must be < effective gallery size {effective}")
    if queries.n == 0:
        raise InvalidConfig("no queries to evaluate")

    sims = queries.vectors @ gallery.vectors.T
    # Stable argsort on the negated similarities keeps equal-similarity items
    # in ascending index order.
    order = np.argsort(-sims, axis=1, kind="stable")
    k_max = ks[-1]
    hits = {k: 0 for k in ks}
    for i in range(queries.n):
        row = order[i]
        if single:
            row = row[row != i]
        top_labels = gallery.labels[row[:k_max]]
        good = top_labels == queries.labels[i]
        for k in ks:
            if good[:k].any():
                hits[k] += 1
    return {k: hits[k] / queries.n for k in ks}
