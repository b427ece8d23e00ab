"""Bounded FIFO memory of embeddings with in-place statistical adaptation.

The bank stores plain detached numbers: nothing here carries gradient
linkage. Exactly one training loop owns and mutates a bank.

adapt's per-dimension affine map does not preserve row norms, so adapted
rows are not unit vectors (norms of 0.78-1.27 measured on the desk
configuration), and the losses' d = 1 - <a, b> against them is not a cosine
distance.
"""

from __future__ import annotations

import numpy as np

from .errors import (CrossbatchError, DimensionMismatch, InsufficientSamples, InvalidConfig,
                     NonFiniteInput)
from .moments import EmbeddingBatch, MomentStats, _moments_into, compute_moments

__all__ = ["MemoryBank"]


class MemoryBank:
    """FIFO store of (embedding, label) pairs, evicting oldest-first.

    capacity 0 is a legal degenerate bank that stores nothing, so memory-based
    training variants reduce exactly to their memoryless counterparts.

    The stored rows sit oldest-first at the front of preallocated buffers.
    reference_set writes the batch right after them and returns a view.
    adapt, and enqueue once it evicts, write into a second vector buffer and
    swap, so the rows adapt replaced stay intact for restore(). Every stored
    row is finite: enqueue takes validated batches and adapt checks its output.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 0:
            raise InvalidConfig(f"capacity must be >= 0, got {capacity}")
        if dim < 1:
            raise InvalidConfig(f"dim must be >= 1, got {dim}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._n = 0
        # Rows past the stored ones are never read before they are written, so
        # the buffers start uninitialised; reference_set grows one to hold a
        # batch after the stored rows.
        self._vectors = np.empty((self.capacity, self.dim))
        self._spare = np.empty((self.capacity, self.dim))
        self._labels = np.empty(self.capacity, dtype=np.int64)
        self._version = 0  # bumped by every change of the stored rows
        self._undo = None  # the version the last adapt started from, if nothing followed it

    def __len__(self) -> int:
        return self._n

    @property
    def labels(self) -> np.ndarray:
        """Stored labels, oldest first (a view of the bank's buffer). Do not mutate."""
        return self._labels[: self._n]

    @property
    def vectors(self) -> np.ndarray:
        """Stored vectors, oldest first (a view of the bank's buffer). Do not mutate."""
        return self._vectors[: self._n]

    def enqueue(self, batch: EmbeddingBatch) -> None:
        """Append batch rows in order, evicting oldest entries beyond capacity."""
        if batch.dim != self.dim:
            raise DimensionMismatch(f"batch dim {batch.dim} != bank dim {self.dim}")
        if self.capacity == 0 or batch.n == 0:
            return
        new = min(batch.n, self.capacity)
        keep = min(self._n, self.capacity - new)
        drop = self._n - keep
        if drop:
            # numpy shifts overlapping rows through a temporary copy, so the
            # kept vectors go to the spare buffer instead
            self._spare[:keep] = self._vectors[drop : self._n]
            self._vectors, self._spare = self._spare, self._vectors
            self._labels[:keep] = self._labels[drop : self._n]
        self._vectors[keep : keep + new] = batch.vectors[batch.n - new :]
        self._labels[keep : keep + new] = batch.labels[batch.n - new :]
        self._n = keep + new
        self._version += 1
        self._undo = None

    def stats(self) -> MomentStats:
        """Moments of the current contents (needs >= 2 entries)."""
        return compute_moments(EmbeddingBatch(self.vectors, self.labels))

    def adapt(self, target_stats: MomentStats) -> None:
        """Replace contents with their moment-matching transform onto target_stats.

        Order and labels are preserved; the adapted values persist for later
        iterations. Callers skip this while the bank holds < 2 entries rather
        than failing a training step.
        """
        n = self._n
        if n < 2:
            raise InsufficientSamples(f"adaptation needs >= 2 stored entries, got {n}")
        if target_stats.dim != self.dim:
            raise DimensionMismatch(f"target stats dim {target_stats.dim} != bank dim {self.dim}")
        out = self._spare[:n]
        _, std = _moments_into(self._vectors[:n], out)
        np.multiply(out, target_stats.std / std, out=out)
        np.add(out, target_stats.mean, out=out)
        if not np.isfinite(out).all():
            raise NonFiniteInput("adapted memory contains NaN or infinity")
        self._vectors, self._spare = self._spare, self._vectors
        self._version += 1
        self._undo = self._version - 1

    def reference_set(self, batch: EmbeddingBatch) -> EmbeddingBatch:
        """Bank entries (oldest first) followed by the batch rows.

        An empty bank returns the batch itself. Otherwise the result is a view
        of the bank's buffer, valid until the bank next changes.
        """
        if batch.dim != self.dim:
            raise DimensionMismatch(f"batch dim {batch.dim} != bank dim {self.dim}")
        n = self._n
        if n == 0:
            return batch
        end = n + batch.n
        if end > len(self._vectors):
            self._vectors = _grown(self._vectors, n, end)
        if end > len(self._labels):
            self._labels = _grown(self._labels, n, end)
        self._vectors[n:end] = batch.vectors
        self._labels[n:end] = batch.labels
        return EmbeddingBatch._trusted(self._vectors[:end], self._labels[:end])

    def state(self) -> tuple:
        """Opaque contents handle for cheap save/restore by the owning trainer.

        restore() undoes at most one adapt() made since the handle was taken,
        which is all a failed training step needs; an enqueue cannot be undone.
        """
        return (self._vectors, self._version)

    def restore(self, state: tuple) -> None:
        vectors, version = state
        if version == self._version:
            return
        if self._undo != version:
            raise CrossbatchError("a bank state undoes only the one adapt() made since it was taken")
        self._vectors, self._spare = vectors, self._vectors
        self._version = version
        self._undo = None


def _grown(buffer: np.ndarray, keep: int, rows: int) -> np.ndarray:
    """A buffer of the given rows that starts with the first keep rows of buffer."""
    out = np.empty((rows, *buffer.shape[1:]), dtype=buffer.dtype)
    out[:keep] = buffer[:keep]
    return out
