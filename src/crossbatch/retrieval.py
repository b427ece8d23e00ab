"""Recall@k by exhaustive cosine-similarity nearest-neighbor search.

Two protocols, told apart by the inputs: passing the same batch as queries
and gallery scores a single self-excluded set (a query never retrieves its
own index); distinct batches score a separate query/gallery split.
Similarities are accumulated in float64 and ties are broken by ascending
gallery index, so results are deterministic and order-stable.

No similarity is sorted. Under that order a query hits at k exactly when its
best positive (the label match of highest similarity, lowest index among
equals) has rank < k. Rank 0 is one argmax: the top candidate is a positive.
For the other queries the rank is a count: the candidates of higher
similarity plus those of equal similarity and lower index, none of which can
be a positive. The best positive is read from the similarity block itself,
at the query's positive columns only (the gallery is grouped by label once
per call), so every comparison is between the same float values and the
result is exactly the one a full sort gives. Queries are processed in chunks
of rows whose similarities and gathered positives fit in `_CHUNK_BYTES`, so
memory is bounded by that budget, not by queries × gallery.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .moments import EmbeddingBatch

__all__ = ["recall_at_k"]

# Bytes held at once per chunk of query rows: 8 per float64 similarity, and
# _GATHER_BYTES per positive gathered for the rows whose top candidate is not
# one (their indices, values and comparison, all alive at the gather's peak).
_CHUNK_BYTES = 16 << 20
_GATHER_BYTES = 32


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

    order = np.argsort(gallery.labels, kind="stable")
    grouped = gallery.labels[order]
    starts = np.searchsorted(grouped, queries.labels)
    counts = np.searchsorted(grouped, queries.labels, side="right") - starts
    most = int(counts.max())
    step = max(1, _CHUNK_BYTES // (8 * gallery.n + _GATHER_BYTES * most))
    sims = np.empty((min(step, queries.n), gallery.n))
    ranks = np.full(queries.n, ks[-1])
    for lo in range(0, queries.n, step):
        hi = min(lo + step, queries.n)
        block = sims[: hi - lo]
        np.matmul(queries.vectors[lo:hi], gallery.vectors.T, out=block)
        if single:
            rows = np.arange(hi - lo)
            block[rows, lo + rows] = -np.inf
        top = gallery.labels[np.argmax(block, axis=1)] == queries.labels[lo:hi]
        ranks[lo:hi][top] = 0
        miss = np.flatnonzero(~top & (counts[lo:hi] > single))
        best, first = _best_positives(block, miss, order, starts[lo + miss], counts[lo + miss])
        for i, b, f in zip(miss.tolist(), best.tolist(), first.tolist()):
            rank = np.count_nonzero(block[i] > b)
            if rank < ks[-1]:
                rank += np.count_nonzero(block[i, :f] == b)
            ranks[lo + i] = rank
    return {k: int(np.count_nonzero(ranks < k)) / queries.n for k in ks}


def _best_positives(block, rows, order, starts, counts) -> tuple[np.ndarray, np.ndarray]:
    """Similarity and lowest column of the best positive of each of block's rows.

    Row rows[i]'s positives are columns order[starts[i]:starts[i] + counts[i]],
    ascending, one at least besides any self column (-inf, so it never wins).
    """
    seg = np.cumsum(counts) - counts
    cols = order[np.arange(counts.sum()) + np.repeat(starts - seg, counts)]
    vals = block[np.repeat(rows, counts), cols]
    best = np.maximum.reduceat(vals, seg)
    at = np.flatnonzero(vals == np.repeat(best, counts))
    return best, cols[at[np.searchsorted(at, seg)]]
