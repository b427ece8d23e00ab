"""Bounded FIFO memory of embeddings with in-place statistical adaptation.

The bank stores plain detached numbers: nothing here carries gradient
linkage. Exactly one training loop owns and mutates a bank; snapshots taken
for diagnostics must not race mutation.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, InvalidConfig
from .moments import EmbeddingBatch, MomentStats, compute_moments

__all__ = ["MemoryBank"]


class MemoryBank:
    """FIFO store of (embedding, label) pairs, evicting oldest-first.

    capacity 0 is a legal degenerate bank that stores nothing, so memory-based
    training variants reduce exactly to their memoryless counterparts.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 0:
            raise InvalidConfig(f"capacity must be >= 0, got {capacity}")
        if dim < 1:
            raise InvalidConfig(f"dim must be >= 1, got {dim}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._vectors = np.empty((0, dim), dtype=np.float64)
        self._labels = np.empty((0,), dtype=np.int64)

    @classmethod
    def with_fraction(cls, fraction: float, train_size: int, dim: int) -> "MemoryBank":
        """Capacity given as a fraction of the training-set size, resolved now."""
        if not 0.0 <= fraction <= 1.0:
            raise InvalidConfig(f"memory fraction must be in [0, 1], got {fraction}")
        return cls(int(round(fraction * train_size)), dim)

    def __len__(self) -> int:
        return self._vectors.shape[0]

    @property
    def labels(self) -> np.ndarray:
        """Stored labels, oldest first. Do not mutate."""
        return self._labels

    @property
    def vectors(self) -> np.ndarray:
        """Stored vectors, oldest first. Do not mutate."""
        return self._vectors

    def enqueue(self, batch: EmbeddingBatch) -> None:
        """Append batch rows in order, evicting oldest entries beyond capacity."""
        if batch.dim != self.dim:
            raise DimensionMismatch(f"batch dim {batch.dim} != bank dim {self.dim}")
        if self.capacity == 0 or batch.n == 0:
            return
        vectors = np.concatenate([self._vectors, batch.vectors])
        labels = np.concatenate([self._labels, batch.labels])
        self._vectors = vectors[-self.capacity :]
        self._labels = labels[-self.capacity :]

    def stats(self) -> MomentStats:
        """Moments of the current contents (needs >= 2 entries)."""
        return compute_moments(self.as_batch())

    def adapt(self, target_stats: MomentStats) -> None:
        """Replace contents with their moment-matching transform onto target_stats.

        Order and labels are preserved; the adapted values persist for later
        iterations. Callers skip this while the bank holds < 2 entries rather
        than failing a training step.
        """
        if len(self) < 2:
            raise InsufficientSamples(f"adaptation needs >= 2 stored entries, got {len(self)}")
        if target_stats.dim != self.dim:
            raise DimensionMismatch(f"target stats dim {target_stats.dim} != bank dim {self.dim}")
        source = compute_moments(self.as_batch())
        # xbn_transform's map, applied to the stored array without re-wrapping
        # it in a batch; the result is a new array, so state() handles stay valid.
        scale = target_stats.std / source.std
        self._vectors = (self._vectors - source.mean) * scale + target_stats.mean

    def reference_set(self, batch: EmbeddingBatch) -> EmbeddingBatch:
        """Bank entries (oldest first) concatenated with the batch rows.

        An empty bank returns the batch itself.
        """
        if batch.dim != self.dim:
            raise DimensionMismatch(f"batch dim {batch.dim} != bank dim {self.dim}")
        if len(self) == 0:
            return batch
        return EmbeddingBatch(
            vectors=np.concatenate([self._vectors, batch.vectors]),
            labels=np.concatenate([self._labels, batch.labels]),
        )

    def as_batch(self) -> EmbeddingBatch:
        """Contents viewed as a batch (shares storage; treat as read-only)."""
        return EmbeddingBatch(vectors=self._vectors, labels=self._labels)

    def state(self) -> tuple:
        """Opaque contents handle for cheap save/restore by the owning trainer.

        Mutating methods rebind rather than write into the stored arrays, so
        holding the references is enough to roll back.
        """
        return (self._vectors, self._labels)

    def restore(self, state: tuple) -> None:
        self._vectors, self._labels = state

    def snapshot(self) -> EmbeddingBatch:
        """Detached copy of the contents, e.g. for serialization or inspection."""
        return EmbeddingBatch(vectors=self._vectors.copy(), labels=self._labels.copy())
