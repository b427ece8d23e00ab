"""Per-dimension moment statistics of embedding sets.

A set of embeddings is summarized by its per-dimension mean and population
standard deviation. Embeddings accumulated under older model parameters are
pulled to the statistics of a newer set (MemoryBank.adapt) by the elementwise
affine map

    z_hat = (z - mean_src) / std_src * std_tgt + mean_tgt

which makes the transformed set match the target mean and std exactly (up to
floating-point error). All statistics arithmetic is done in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, NonFiniteInput, ShapeMismatch

__all__ = [
    "EPS_STD",
    "EmbeddingBatch",
    "MomentStats",
    "compute_moments",
    "diag_gaussian_kl",
]

# Floor applied to every standard deviation so collapsed dimensions never
# produce a divide-by-zero in the transform.
EPS_STD = 1e-8


@dataclass
class EmbeddingBatch:
    """n embedding vectors of dimension d with integer class labels."""

    vectors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ShapeMismatch(f"vectors must be 2-d (n, d), got shape {self.vectors.shape}")
        if not np.isfinite(self.vectors).all():
            raise NonFiniteInput("embedding vectors contain NaN or infinity")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.shape[0] != self.vectors.shape[0]:
            raise ShapeMismatch(
                f"labels shape {self.labels.shape} does not match {self.vectors.shape[0]} rows"
            )

    @classmethod
    def _trusted(cls, vectors: np.ndarray, labels: np.ndarray) -> "EmbeddingBatch":
        """A batch over arrays already known to pass __post_init__'s checks; skips them."""
        batch = cls.__new__(cls)
        batch.vectors, batch.labels = vectors, labels
        return batch

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class MomentStats:
    """Per-dimension mean and (floored) population std of an embedding set."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ShapeMismatch(
                f"mean shape {self.mean.shape} and std shape {self.std.shape} must be equal 1-d"
            )

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def compute_moments(batch: EmbeddingBatch) -> MomentStats:
    """Per-dimension mean and population standard deviation of a batch.

    Requires at least 2 rows; stds are floored at EPS_STD.
    """
    if batch.n < 2:
        raise InsufficientSamples(f"moment computation needs >= 2 rows, got {batch.n}")
    centered = np.empty_like(batch.vectors)
    mean, std = _moments_into(batch.vectors, centered)
    return MomentStats(mean=mean, std=std)


def _moments_into(rows: np.ndarray, centered: np.ndarray):
    """Mean and floored population std of rows, leaving rows - mean in centered.

    The arithmetic follows numpy's own order for mean and std (sum, divide;
    subtract, square, sum, divide, sqrt), so the results equal
    rows.mean(axis=0) and rows.std(axis=0) bit for bit.
    """
    n = rows.shape[0]
    mean = _column_sums(rows) / n
    np.subtract(rows, mean, out=centered)
    std = np.maximum(EPS_STD, np.sqrt(_column_sums(centered, squares=True) / n))
    return mean, std


def _column_sums(a: np.ndarray, squares: bool = False) -> np.ndarray:
    """Column sums of a, or of a * a, bit-equal to np.add.reduce's. einsum adds a
    C-contiguous matrix's rows in order as reduce does, with no product array; numpy
    sums one contiguous column pairwise, so other layouts, d == 1 included, use reduce."""
    if a.shape[1] > 1 and a.flags.c_contiguous:
        return np.einsum("ij,ij->j", a, a) if squares else np.einsum("ij->j", a)
    return np.add.reduce(a * a if squares else a, axis=0)


def diag_gaussian_kl(p: MomentStats, q: MomentStats) -> float:
    """KL divergence between diagonal Gaussians N(p.mean, p.std^2) and N(q.mean, q.std^2).

    Sum of the univariate closed forms over dimensions; nonnegative, zero iff
    the stats agree.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimensions disagree: {p.dim} vs {q.dim}")
    var_p = p.std**2
    var_q = q.std**2
    per_dim = np.log(q.std / p.std) + (var_p + (p.mean - q.mean) ** 2) / (2.0 * var_q) - 0.5
    return float(per_dim.sum())
