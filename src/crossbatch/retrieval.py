"""Recall@k by exhaustive cosine-similarity nearest-neighbor search.

Two protocols, told apart by the inputs: passing the same batch as queries
and gallery scores a single self-excluded set (a query never retrieves its
own index); distinct batches score a separate query/gallery split.
Similarities are accumulated in float64 and ties are broken by ascending
gallery index, so results are deterministic and order-stable.

Nothing is sorted. Under that order a query hits at k exactly when its best
positive (the label match of highest similarity, lowest index among equals)
has rank < k, and that rank is a count: the candidates of higher similarity
plus those of equal similarity and lower index, none of which can be a
positive. The count is exact, so the result is the one a full sort gives.
Queries are processed in chunks of rows whose similarities fit in
`_CHUNK_BYTES`, so memory is bounded by that budget, not by queries × gallery.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .moments import EmbeddingBatch

__all__ = ["recall_at_k"]

# Bytes of float64 similarities held at once; the boolean masks built beside
# them add about half as much again.
_CHUNK_BYTES = 16 << 20


def _check_k_values(k_values) -> tuple[int, ...]:
    """k_values as a tuple of ints, each >= 1 and strictly ascending."""
    ks = tuple(k_values)

    def bad(why: str) -> InvalidConfig:
        return InvalidConfig(f"k values must be >= 1 and ascending, got {ks}: {why}")

    if not ks:
        raise bad("none given")
    try:
        ints = tuple(operator.index(k) for k in ks)
    except TypeError:
        raise bad("not all integers") from None
    if ints[0] < 1:
        raise bad("k < 1")
    if any(a >= b for a, b in zip(ints, ints[1:])):
        raise bad("not strictly ascending")
    return ints


def recall_at_k(
    queries: EmbeddingBatch, gallery: EmbeddingBatch, k_values
) -> dict[int, float]:
    """Fraction of queries whose k nearest gallery items include a label match.

    When gallery is queries (the same object) each query's own index is
    excluded from its candidates, so the effective gallery size is n - 1.
    Every requested k must be smaller than the effective gallery size.
    """
    ks = _check_k_values(k_values)
    if queries.dim != gallery.dim:
        raise DimensionMismatch(f"query dim {queries.dim} != gallery dim {gallery.dim}")
    single = gallery is queries
    effective = gallery.n - 1 if single else gallery.n
    if ks[-1] >= effective:
        raise InvalidConfig(f"k={ks[-1]} must be < effective gallery size {effective}")
    if queries.n == 0:
        raise InvalidConfig("no queries to evaluate")

    step = max(1, _CHUNK_BYTES // (8 * gallery.n))
    ranks = np.concatenate([
        _best_positive_ranks(queries, gallery, lo, min(lo + step, queries.n), single)
        for lo in range(0, queries.n, step)
    ])
    return {k: int(np.count_nonzero(ranks < k)) / queries.n for k in ks}


def _best_positive_ranks(
    queries: EmbeddingBatch, gallery: EmbeddingBatch, lo: int, hi: int, single: bool
) -> np.ndarray:
    """Rank of each best positive of queries lo..hi; gallery.n when there is none."""
    sims = queries.vectors[lo:hi] @ gallery.vectors.T
    pos = queries.labels[lo:hi, None] == gallery.labels
    if single:
        rows = np.arange(hi - lo)
        pos[rows, lo + rows] = False
    best = np.max(sims, axis=1, where=pos, initial=-np.inf, keepdims=True)
    at_best = sims == best
    first = np.argmax(pos & at_best, axis=1)[:, None]
    ahead = sims > best
    ahead |= at_best & (np.arange(gallery.n) < first)
    if single:
        ahead[rows, lo + rows] = False
    return np.where(pos.any(axis=1), np.count_nonzero(ahead, axis=1), gallery.n)
