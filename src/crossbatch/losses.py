"""Ranking losses between a minibatch and a reference set, with analytic gradients.

The reference always ends with the minibatch: an (n-row) batch is ranked
against m >= n reference rows, the first m - n of them other rows (none for
no-xbm, the stored memory for xbm) and the last n the batch itself, in order.
So query row i's self-pair is reference column m - n + i, which is never
mined. A reference shorter than the batch raises ShapeMismatch.

Distances are d = 1 - <a, b>, computed in one minibatch x reference matrix
pass. That is the cosine distance only for unit rows. The embedder emits unit
rows, but memory rows moment-matched by MemoryBank.adapt are not
re-normalized (norms of 0.78-1.27 measured on the desk configuration), so
against them d is an inner-product distance on a stretched scale.

Gradients are taken with respect to minibatch rows only: reference rows are
constants (no gradient into stored memory), except the reference's tail,
which is the same live embedding as the batch and so also receives the
gradient from that role.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .memory import MemoryBank
from .moments import EmbeddingBatch

if TYPE_CHECKING:
    from .training import TrainConfig

__all__ = [
    "MinedPairs",
    "LossOutput",
    "distance_matrix",
    "mine_pairs",
    "contrastive_loss",
    "triplet_loss",
    "xbm_loss",
]

@dataclass(frozen=True, eq=False)
class MinedPairs:
    """Pairs (query row, reference row) selected by the margin miner, as masks.

    pos_mask and neg_mask are (n_batch, n_reference) boolean masks over
    distances, the matrix they were mined from, so the loss reuses it instead
    of building it again.
    """

    pos_mask: np.ndarray  # (n_batch, n_reference) bool
    neg_mask: np.ndarray  # (n_batch, n_reference) bool
    distances: np.ndarray  # (n_batch, n_reference) float

    @property
    def positives(self) -> np.ndarray:
        """(n_pos, 2) index pairs of the positive mask, in row-major order."""
        return np.argwhere(self.pos_mask)

    @property
    def negatives(self) -> np.ndarray:
        """(n_neg, 2) index pairs of the negative mask, in row-major order."""
        return np.argwhere(self.neg_mask)


@dataclass(frozen=True)
class LossOutput:
    value: float
    grad: np.ndarray  # d(value)/d(minibatch vectors), same shape as the minibatch

    def __add__(self, other: "LossOutput") -> "LossOutput":
        return LossOutput(self.value + other.value, self.grad + other.grad)


def distance_matrix(batch_vectors: np.ndarray, reference_vectors: np.ndarray) -> np.ndarray:
    """Distances 1 - <a, b>, batch rows x reference rows."""
    d = batch_vectors @ reference_vectors.T
    return np.subtract(1.0, d, out=d)


def _drop_self_pairs(mask: np.ndarray) -> np.ndarray:
    """Clear, in place, the self-pairs (i, m - n + i) of an (n, m) mask."""
    n, m = mask.shape
    if m < n:
        raise ShapeMismatch(f"a reference of {m} rows cannot end with a batch of {n}")
    np.fill_diagonal(mask[:, m - n :], False)
    return mask


def mine_pairs(
    batch: EmbeddingBatch, reference: EmbeddingBatch, cfg: TrainConfig
) -> MinedPairs:
    """Margin mining over the full distance matrix.

    Positives: equal label, distance > pos_margin, excluding the self-pair
    (reference column m - n + i for query i). Negatives: different label,
    distance < neg_margin. Duplicate embeddings of the same class at other
    positions still form valid pairs.
    """
    d = distance_matrix(batch.vectors, reference.vectors)
    same = batch.labels[:, None] == reference.labels[None, :]
    pos_mask = np.greater(d, cfg.pos_margin)
    pos_mask &= same
    neg_mask = np.less(d, cfg.neg_margin)
    # below the margin and not the same class: neg > same is neg & ~same
    np.greater(neg_mask, same, out=neg_mask)
    return MinedPairs(_drop_self_pairs(pos_mask), neg_mask, d)


def _weights_to_grad(
    weights: np.ndarray, batch_vectors: np.ndarray, reference_vectors: np.ndarray
) -> np.ndarray:
    """Gradient of sum_ij weights[i,j] * d[i,j] with respect to the minibatch rows.

    d[i,j] = 1 - <b_i, r_j>, so the query role contributes -weights @ R and the
    reference role of minibatch row i (column m - n + i) contributes
    -weights[:, m - n:].T @ B back onto that row.
    """
    n, m = weights.shape
    grad = -(weights @ reference_vectors)
    grad -= weights[:, m - n :].T @ batch_vectors
    return grad


def contrastive_loss(
    batch: EmbeddingBatch, reference: EmbeddingBatch, cfg: TrainConfig
) -> LossOutput:
    """Margin-hinge contrastive loss over the pairs mine_pairs selects.

    value = mean over positives of [d - pos_margin]_+
          + mean over negatives of [neg_margin - d]_+,
    each mean over its own nonempty set (an empty set contributes 0).

    The loss reads the miner's distance matrix rather than recomputing it, and
    relies on the miner's predicates (d > pos_margin, d < neg_margin) for
    every mined hinge being active, so the gradient weight of a pair is just
    1/n_pos or -1/n_neg. The value is read off those weights w as
    sum(w * d) - pos_margin * [n_pos > 0] + neg_margin * [n_neg > 0], clamped
    at 0 so that rounding never makes it negative or -0.0. The sum runs over
    every entry of d, so a non-finite distance anywhere, mined or not, makes
    the value non-finite (the trainer raises NonFiniteLoss and rolls back).
    """
    pairs = mine_pairs(batch, reference, cfg)
    d = pairs.distances
    n_pos = np.count_nonzero(pairs.pos_mask)
    n_neg = np.count_nonzero(pairs.neg_mask)
    # -1/n_neg at the negatives, then 1/n_pos at the positives (the masks are disjoint)
    weights = pairs.neg_mask * (-1.0 / max(n_neg, 1))
    np.copyto(weights, 1.0 / max(n_pos, 1), where=pairs.pos_mask)
    # einsum, not BLAS: BLAS threads split a dot product and move its rounding
    value = (np.einsum("ij,ij->", weights, d)
             - cfg.pos_margin * (n_pos > 0) + cfg.neg_margin * (n_neg > 0))
    # not max(0.0, value), which would map NaN to 0.0
    value = 0.0 if value <= 0.0 else float(value)
    grad = _weights_to_grad(weights, batch.vectors, reference.vectors)
    return LossOutput(value=value, grad=grad)


def triplet_loss(batch: EmbeddingBatch, reference: EmbeddingBatch, margin: float) -> LossOutput:
    """Triplet loss over all valid (anchor, positive, negative) reference triplets.

    Each anchor averages [d(a,p) - d(a,n) + margin]_+ over its full triplet set;
    the value is the mean over anchors that have at least one triplet. Anchors
    without one are skipped.
    """
    if margin < 0:
        raise InvalidConfig(f"margin must be >= 0, got {margin}")
    d = distance_matrix(batch.vectors, reference.vectors)
    same = batch.labels[:, None] == reference.labels[None, :]
    same_not_self = _drop_self_pairs(same.copy())
    weights = np.zeros_like(d)
    total = 0.0
    anchors_used = 0
    for i in range(batch.n):
        pos_idx = np.where(same_not_self[i])[0]
        neg_idx = np.where(~same[i])[0]
        if len(pos_idx) == 0 or len(neg_idx) == 0:
            continue
        hinge = d[i, pos_idx][:, None] - d[i, neg_idx][None, :] + margin
        active = hinge > 0
        n_triplets = len(pos_idx) * len(neg_idx)
        total += float(np.where(active, hinge, 0.0).sum()) / n_triplets
        weights[i, pos_idx] += active.sum(axis=1) / n_triplets
        weights[i, neg_idx] -= active.sum(axis=0) / n_triplets
        anchors_used += 1
    if anchors_used == 0:
        return LossOutput(value=0.0, grad=np.zeros_like(batch.vectors))
    weights /= anchors_used
    grad = _weights_to_grad(weights, batch.vectors, reference.vectors)
    return LossOutput(value=total / anchors_used, grad=grad)


def xbm_loss(
    batch: EmbeddingBatch,
    bank: MemoryBank,
    cfg: TrainConfig,
    variant: str,
) -> LossOutput:
    """Contrastive loss under one of the reference-set variants.

    no-xbm: reference is the batch itself. xbm: bank.reference_set, new arrays
    of the bank contents then the batch. xbm-star: sum of the two. The bank is
    read, never changed; the trainer adapts it before and enqueues after.
    """
    if variant == "no-xbm":
        return contrastive_loss(batch, batch, cfg)
    if variant == "xbm":
        return contrastive_loss(batch, bank.reference_set(batch), cfg)
    if variant == "xbm-star":
        own = contrastive_loss(batch, batch, cfg)
        return own + contrastive_loss(batch, bank.reference_set(batch), cfg)
    raise InvalidConfig(f"variant must be one of no-xbm, xbm, xbm-star, got {variant!r}")
