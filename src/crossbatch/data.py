"""Synthetic clustered datasets and feature-file IO.

Datasets hold raw (pre-embedding) feature vectors, integer labels, and a
per-row split tag: train, validation query, or validation gallery. When no
row carries the gallery tag the validation protocol is single-set: the query
rows double as the gallery with self-exclusion.

Binary format "XBNF": magic, version u16, flags u16 (bit 0 set = 64-bit
floats), u32 row count, u32 feature dim, little-endian row-major features,
then one u32 label and one u8 split tag per row. Any other flag bit is an
error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidConfig, NonFiniteInput, ShapeMismatch

__all__ = [
    "TAG_TRAIN",
    "TAG_VAL_QUERY",
    "TAG_VAL_GALLERY",
    "FeatureDataset",
    "SyntheticConfig",
    "generate_synthetic",
    "save_features",
    "load_features",
]

TAG_TRAIN = 0
TAG_VAL_QUERY = 1
TAG_VAL_GALLERY = 2

MAGIC = b"XBNF"
VERSION = 1
_FLAG_FLOAT64 = 1


@dataclass
class FeatureDataset:
    """Feature matrix, labels, and split tags; immutable after construction."""

    features: np.ndarray
    labels: np.ndarray
    splits: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features)
        if self.features.dtype not in (np.float32, np.float64):
            self.features = self.features.astype(np.float64)
        if self.features.ndim != 2:
            raise ShapeMismatch(f"features must be 2-d, got shape {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise NonFiniteInput("features contain NaN or infinity")
        n = self.features.shape[0]
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.splits = np.asarray(self.splits, dtype=np.uint8)
        if self.labels.shape != (n,) or self.splits.shape != (n,):
            raise ShapeMismatch("labels and splits must have one entry per feature row")
        if (self.labels < 0).any():
            raise InvalidConfig("labels must be nonnegative")
        if not np.isin(self.splits, (TAG_TRAIN, TAG_VAL_QUERY, TAG_VAL_GALLERY)).all():
            raise InvalidConfig("split tags must be 0 (train), 1 (val-query), or 2 (val-gallery)")
        gallery_labels = self.labels[self.splits == TAG_VAL_GALLERY]
        if gallery_labels.size:
            query_labels = self.labels[self.splits == TAG_VAL_QUERY]
            if not np.isin(query_labels, gallery_labels).all():
                raise InvalidConfig("every val-query label must also appear in val-gallery")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def single_set(self) -> bool:
        """True when validation has no gallery rows (query set doubles as gallery)."""
        return not (self.splits == TAG_VAL_GALLERY).any()

    def rows(self, tag: int) -> np.ndarray:
        return np.where(self.splits == tag)[0]


@dataclass(frozen=True)
class SyntheticConfig:
    """Clustered-Gaussian dataset: class centers drawn from the standard normal,
    samples spread cluster_std around them. Train and validation class sets are disjoint."""

    train_classes: int = 100
    val_classes: int = 40
    samples_per_class: int = 20
    input_dim: int = 32
    cluster_std: float = 1.0
    seed: int = 0
    protocol: str = "single"  # or "query-gallery"

    def __post_init__(self):
        if self.train_classes < 2 or self.val_classes < 2:
            raise InvalidConfig("need >= 2 train and >= 2 validation classes")
        if self.samples_per_class < 2:
            raise InvalidConfig(f"samples_per_class must be >= 2, got {self.samples_per_class}")
        if self.input_dim < 1:
            raise InvalidConfig(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.cluster_std > 0:
            raise InvalidConfig(f"cluster_std must be > 0, got {self.cluster_std}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.protocol not in ("single", "query-gallery"):
            raise InvalidConfig(f"protocol must be single or query-gallery, got {self.protocol!r}")


def generate_synthetic(cfg: SyntheticConfig) -> FeatureDataset:
    """Deterministic per seed; labels 0..train_classes-1 are train, the rest validation."""
    rng = np.random.default_rng(cfg.seed)
    total_classes = cfg.train_classes + cfg.val_classes
    spc = cfg.samples_per_class
    try:
        centers = rng.normal(0.0, 1.0, size=(total_classes, cfg.input_dim))
        noise = rng.normal(0.0, cfg.cluster_std, size=(total_classes * spc, cfg.input_dim))
    except ValueError:  # numpy's refusal of a size it cannot index, before allocating
        raise InvalidConfig(f"{total_classes * spc} x {cfg.input_dim} features: too many") from None
    features = np.repeat(centers, spc, axis=0) + noise
    labels = np.repeat(np.arange(total_classes, dtype=np.int64), spc)
    splits = np.full(total_classes * spc, TAG_TRAIN, dtype=np.uint8)
    val_rows = labels >= cfg.train_classes
    if cfg.protocol == "single":
        splits[val_rows] = TAG_VAL_QUERY
    else:
        # Within each validation class the first half gallery, the rest query.
        offsets = np.arange(total_classes * spc) % spc
        splits[val_rows & (offsets < (spc + 1) // 2)] = TAG_VAL_GALLERY
        splits[val_rows & (offsets >= (spc + 1) // 2)] = TAG_VAL_QUERY
    return FeatureDataset(features=features, labels=labels, splits=splits)


def save_features(dataset: FeatureDataset, path) -> None:
    """Write a dataset in the XBNF binary format.

    float32 feature matrices are stored as 32-bit payloads, everything else as
    64-bit; the round trip is bit-exact either way.
    """
    if (dataset.labels >= 2**32).any():
        raise InvalidConfig("labels must fit in an unsigned 32-bit integer")
    use64 = dataset.features.dtype != np.float32
    flags = _FLAG_FLOAT64 if use64 else 0
    payload_dtype = "<f8" if use64 else "<f4"
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<HHII", VERSION, flags, dataset.n, dataset.input_dim))
        f.write(np.ascontiguousarray(dataset.features, dtype=payload_dtype).tobytes())
        f.write(dataset.labels.astype("<u4").tobytes())
        f.write(dataset.splits.astype("u1").tobytes())


def load_features(path) -> FeatureDataset:
    """Read an XBNF file; errors carry the byte offset where parsing failed."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise FormatError("bad magic", 0)
    header_end = 4 + struct.calcsize("<HHII")
    if len(blob) < header_end:
        raise FormatError("truncated header", len(blob))
    version, flags, n, input_dim = struct.unpack_from("<HHII", blob, 4)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    if flags & ~_FLAG_FLOAT64:
        raise FormatError(f"unknown flags {flags:#x}", 6)
    dtype = np.dtype("<f8") if flags else np.dtype("<f4")
    feat_bytes = n * input_dim * dtype.itemsize
    expected = header_end + feat_bytes + 4 * n + n
    if len(blob) < expected:
        raise FormatError(f"truncated body, expected {expected} bytes", len(blob))
    if len(blob) > expected:
        raise FormatError("trailing bytes after payload", expected)
    features = np.frombuffer(blob, dtype=dtype, count=n * input_dim, offset=header_end)
    features = features.reshape(n, input_dim).astype(dtype.base.type, copy=True)
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=header_end + feat_bytes)
    splits = np.frombuffer(blob, dtype="u1", count=n, offset=header_end + feat_bytes + 4 * n)
    return FeatureDataset(
        features=features, labels=labels.astype(np.int64), splits=splits.copy()
    )

