"""Bounded FIFO memory of embeddings with statistical adaptation.

The bank stores plain detached numbers: nothing here carries gradient
linkage. Exactly one training loop owns and changes a bank.

adapt's per-dimension affine map does not preserve row norms, so adapted
rows are not unit vectors (norms of 0.78-1.27 measured on the desk
configuration), and the losses' d = 1 - <a, b> against them is not a cosine
distance.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, InvalidConfig, NonFiniteInput
from .moments import EmbeddingBatch, MomentStats, _moments_into, compute_moments

__all__ = ["MemoryBank"]


class MemoryBank:
    """FIFO store of (embedding, label) pairs, evicting oldest-first.

    capacity 0 is a legal degenerate bank that stores nothing, so memory-based
    training variants reduce exactly to their memoryless counterparts.

    The bank never writes into an array it holds or has handed out: every
    change binds new arrays, so a reference set, a state() or the rows read
    through vectors and labels keep their values while the caller holds them.
    enqueue(batch) right after reference_set(batch) keeps that reference set's
    tail, so a training step copies the stored rows once. Every stored row is
    finite: enqueue takes validated batches and adapt checks its output.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 0:
            raise InvalidConfig(f"capacity must be >= 0, got {capacity}")
        if dim < 1:
            raise InvalidConfig(f"dim must be >= 1, got {dim}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._vectors = np.empty((0, self.dim))
        self._labels = np.empty(0, dtype=np.int64)
        self._last = (None, None, None)  # (batch, stored vectors, reference set)

    def __len__(self) -> int:
        return len(self._labels)

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
        rows = min(len(self) + batch.n, self.capacity)
        last_batch, stored, joined = self._last
        self._last = (None, None, None)  # so the rows it held are freed before the next adapt
        if last_batch is not batch or stored is not self._vectors:
            joined = self._joined(batch)
        self._vectors, self._labels = joined.vectors[-rows:], joined.labels[-rows:]

    def stats(self) -> MomentStats:
        """Moments of the current contents (needs >= 2 entries)."""
        return compute_moments(EmbeddingBatch(self.vectors, self.labels))

    def adapt(self, target_stats: MomentStats) -> None:
        """Replace contents with their moment-matching transform onto target_stats.

        Order and labels are preserved; the adapted values persist for later
        iterations. Callers skip this while the bank holds < 2 entries rather
        than failing a training step.
        """
        n = len(self)
        if n < 2:
            raise InsufficientSamples(f"adaptation needs >= 2 stored entries, got {n}")
        if target_stats.dim != self.dim:
            raise DimensionMismatch(f"target stats dim {target_stats.dim} != bank dim {self.dim}")
        out = np.empty_like(self._vectors)
        _, std = _moments_into(self._vectors, out)
        np.multiply(out, target_stats.std / std, out=out)
        np.add(out, target_stats.mean, out=out)
        if not np.isfinite(out).all():
            raise NonFiniteInput("adapted memory contains NaN or infinity")
        self._vectors = out

    def reference_set(self, batch: EmbeddingBatch) -> EmbeddingBatch:
        """Bank entries (oldest first) followed by the batch rows, in new arrays;
        an empty bank returns the batch itself."""
        if batch.dim != self.dim:
            raise DimensionMismatch(f"batch dim {batch.dim} != bank dim {self.dim}")
        if len(self) == 0:
            return batch
        reference = self._joined(batch)
        self._last = (batch, self._vectors, reference)
        return reference

    def _joined(self, batch: EmbeddingBatch) -> EmbeddingBatch:
        return EmbeddingBatch._trusted(np.concatenate([self._vectors, batch.vectors]),
                                       np.concatenate([self._labels, batch.labels]))

    def state(self) -> tuple:
        """The current contents, for restore(): the bank never writes into them."""
        return self._vectors, self._labels

    def restore(self, state: tuple) -> None:
        """Return to the contents of an earlier state()."""
        self._vectors, self._labels = state
