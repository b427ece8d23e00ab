"""Ranking losses between a minibatch and a reference set, with analytic gradients.

All distances are cosine distances d = 1 - <a, b> on unit-normalized vectors,
computed in one minibatch x reference matrix pass. Gradients are taken with
respect to minibatch rows only: reference rows are constants (no gradient into
stored memory), except that a minibatch row re-appearing inside the reference
at self_offset receives the gradient from that role too, since it is the same
live embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .memory import MemoryBank
from .moments import EmbeddingBatch

__all__ = [
    "PairMinerConfig",
    "MinedPairs",
    "LossOutput",
    "distance_matrix",
    "mine_pairs",
    "contrastive_loss",
    "triplet_loss",
    "xbm_loss",
]

@dataclass(frozen=True)
class PairMinerConfig:
    """Margins, in cosine-distance units, for pair selection and the hinges."""

    pos_margin: float = 0.2
    neg_margin: float = 0.8

    def __post_init__(self):
        if not 0.0 <= self.pos_margin < self.neg_margin <= 2.0:
            raise InvalidConfig(
                f"margins must satisfy 0 <= pos < neg <= 2, got "
                f"({self.pos_margin}, {self.neg_margin})"
            )


@dataclass(frozen=True, eq=False)
class MinedPairs:
    """Pairs (query row, reference row) selected by the margin miner, as masks.

    pos_mask and neg_mask are (n_batch, n_reference) boolean masks over
    distances, the matrix they were mined from, so the loss reuses it instead
    of building it again. self_offset records where the minibatch rows sit
    inside the reference, so losses can route gradients to both roles of a
    minibatch row. cfg holds the margins the masks were mined with.
    """

    pos_mask: np.ndarray  # (n_batch, n_reference) bool
    neg_mask: np.ndarray  # (n_batch, n_reference) bool
    distances: np.ndarray  # (n_batch, n_reference) float
    self_offset: int
    cfg: PairMinerConfig

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
    """Cosine distances, batch rows x reference rows."""
    d = batch_vectors @ reference_vectors.T
    return np.subtract(1.0, d, out=d)


def _drop_self_pairs(mask: np.ndarray, self_offset: int) -> np.ndarray:
    """Clear, in place, the self-pairs (i, self_offset + i) that fall inside mask."""
    rows = np.arange(max(-self_offset, 0), min(mask.shape[0], mask.shape[1] - self_offset))
    mask[rows, rows + self_offset] = False
    return mask


def mine_pairs(
    batch: EmbeddingBatch,
    reference: EmbeddingBatch,
    cfg: PairMinerConfig,
    self_offset: int,
) -> MinedPairs:
    """Margin mining over the full distance matrix.

    Positives: equal label, distance > pos_margin, excluding the positional
    self-pair (reference column self_offset + i for query i). Negatives:
    different label, distance < neg_margin. Duplicate embeddings of the same
    class at other positions still form valid pairs.
    """
    d = distance_matrix(batch.vectors, reference.vectors)
    same = batch.labels[:, None] == reference.labels[None, :]
    pos_mask = _drop_self_pairs(same & (d > cfg.pos_margin), self_offset)
    neg_mask = ~same & (d < cfg.neg_margin)
    return MinedPairs(pos_mask, neg_mask, d, self_offset, cfg)


def _weights_to_grad(
    weights: np.ndarray,
    batch_vectors: np.ndarray,
    reference_vectors: np.ndarray,
    self_offset: int,
) -> np.ndarray:
    """Gradient of sum_ij weights[i,j] * d[i,j] with respect to the minibatch rows.

    d[i,j] = 1 - <b_i, r_j>, so the query role contributes -weights @ R and the
    reference role of minibatch row i' (= column self_offset + i') contributes
    -weights[:, col].T @ B back onto that row.
    """
    grad = -(weights @ reference_vectors)
    n, m = weights.shape
    lo = max(self_offset, 0)
    hi = min(self_offset + n, m)
    if hi > lo:
        grad[lo - self_offset : hi - self_offset] += -(weights[:, lo:hi].T @ batch_vectors)
    return grad


def contrastive_loss(
    batch: EmbeddingBatch,
    reference: EmbeddingBatch,
    pairs: MinedPairs,
    cfg: PairMinerConfig,
) -> LossOutput:
    """Margin-hinge contrastive loss over mined pairs.

    value = mean over positives of [d - pos_margin]_+
          + mean over negatives of [neg_margin - d]_+,
    each mean over its own nonempty set (an empty set contributes 0).

    pairs must come from mine_pairs(batch, reference, cfg, ...): the loss
    reads their distance matrix rather than recomputing it, and relies on the
    miner's predicates (d > pos_margin, d < neg_margin) for every mined hinge
    being active, so the gradient weight of a pair is just 1/n_pos or -1/n_neg.
    """
    d = pairs.distances
    if d.shape != (batch.n, reference.n):
        raise ShapeMismatch(
            f"pairs were mined over a {d.shape} matrix, not ({batch.n}, {reference.n})"
        )
    if pairs.cfg != cfg:
        raise InvalidConfig(f"pairs were mined with {pairs.cfg}, not {cfg}")
    # row-major, the order of pairs.positives and pairs.negatives; positives
    # are few, so they are taken by index
    pos = np.flatnonzero(pairs.pos_mask)
    pos_d = d.ravel()[pos]
    neg_d = np.compress(pairs.neg_mask.ravel(), d.ravel())
    value = 0.0
    # 0 - neg_mask / n_neg, then 1 / n_pos at the positives (the masks are disjoint)
    weights = pairs.neg_mask * (1.0 / max(neg_d.size, 1))
    np.subtract(0.0, weights, out=weights)
    if pos_d.size:
        value += float((pos_d - cfg.pos_margin).sum() / pos_d.size)
        np.put(weights, pos, 1.0 / pos_d.size)
    if neg_d.size:
        value += float((cfg.neg_margin - neg_d).sum() / neg_d.size)
    grad = _weights_to_grad(weights, batch.vectors, reference.vectors, pairs.self_offset)
    return LossOutput(value=value, grad=grad)


def triplet_loss(
    batch: EmbeddingBatch,
    reference: EmbeddingBatch,
    margin: float,
    self_offset: int,
) -> LossOutput:
    """Triplet loss over all valid (anchor, positive, negative) reference triplets.

    Each anchor averages [d(a,p) - d(a,n) + margin]_+ over its full triplet set;
    the value is the mean over anchors that have at least one triplet. Anchors
    without one are skipped.
    """
    if margin < 0:
        raise InvalidConfig(f"margin must be >= 0, got {margin}")
    d = distance_matrix(batch.vectors, reference.vectors)
    same = batch.labels[:, None] == reference.labels[None, :]
    same_not_self = _drop_self_pairs(same.copy(), self_offset)
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
    grad = _weights_to_grad(weights, batch.vectors, reference.vectors, self_offset)
    return LossOutput(value=total / anchors_used, grad=grad)


def xbm_loss(
    batch: EmbeddingBatch,
    bank: MemoryBank,
    cfg: PairMinerConfig,
    variant: str,
) -> LossOutput:
    """Contrastive loss under one of the reference-set variants.

    no-xbm: reference is the batch itself. xbm: reference is the bank contents
    followed by the batch. xbm-star: sum of the two. The bank is read, never
    modified; enqueueing and adaptation are the trainer's job before this call.
    """
    def minibatch_only() -> LossOutput:
        pairs = mine_pairs(batch, batch, cfg, self_offset=0)
        return contrastive_loss(batch, batch, pairs, cfg)

    def with_memory() -> LossOutput:
        reference = bank.reference_set(batch)
        pairs = mine_pairs(batch, reference, cfg, self_offset=len(bank))
        return contrastive_loss(batch, reference, pairs, cfg)

    if variant == "no-xbm":
        return minibatch_only()
    if variant == "xbm":
        return with_memory()
    if variant == "xbm-star":
        return minibatch_only() + with_memory()
    raise InvalidConfig(f"variant must be one of no-xbm, xbm, xbm-star, got {variant!r}")
