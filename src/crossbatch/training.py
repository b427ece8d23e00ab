"""Training orchestration: P-K sampling, warmup, per-variant memory updates,
loss/backprop/optimizer steps, drift probes, and per-epoch validation.

A run is a pure function of (seed, config, dataset, variant): all randomness
derives from named SeedSequence children of the config seed, so paired runs of
different variants see identical batch sequences and initial parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TAG_TRAIN, TAG_VAL_GALLERY, TAG_VAL_QUERY, FeatureDataset
from .embedder import MLPEmbedder, Optimizer
from .errors import InvalidConfig, NonFiniteLoss
from .kalman import ema_step, kalman_init, kalman_step
from .losses import xbm_loss
from .memory import MemoryBank
from .moments import EmbeddingBatch, MomentStats, compute_moments
from .retrieval import _check_k_values, recall_at_k

__all__ = [
    "VARIANTS",
    "KALMAN_SETTINGS",
    "MethodVariant",
    "TrainConfig",
    "IterationRecord",
    "EpochRecord",
    "TrainResult",
    "sample_pk_batches",
    "TrainingRun",
    "evaluate",
]

# One row per variant: the reference set xbm_loss ranks the batch against,
# and the statistics filter whose estimate the bank is moment-matched to before
# the loss (None leaves the bank as stored). xbn is the ema filter at momentum
# 0, whose gain-1 innovation copies the batch moments exactly.
VARIANTS = {
    "no-xbm": ("no-xbm", None),
    "xbm": ("xbm", None),
    "xbm-star": ("xbm-star", None),
    "xbn": ("xbm", "ema"),
    "axbn": ("xbm", "kalman"),
    "ema": ("xbm", "ema"),
}

# The TrainConfig fields only the kalman filter reads, so only its variants accept them.
KALMAN_SETTINGS = ("q", "r", "p0")


@dataclass(frozen=True)
class MethodVariant:
    """A row of VARIANTS; only ema takes a momentum (spelled "ema:M")."""

    kind: str
    momentum: float = 0.0

    def __post_init__(self):
        # one spelling, spec and directory per momentum: -0.0 + 0.0 is 0.0
        object.__setattr__(self, "momentum", self.momentum + 0.0)
        if self.kind not in VARIANTS:
            raise InvalidConfig(f"variant must be one of {tuple(VARIANTS)}, got {self.kind!r}")
        if self.kind == "ema" and not 0.0 <= self.momentum <= 1.0:
            raise InvalidConfig(f"ema momentum must be in [0, 1], got {self.momentum}")
        if self.kind != "ema" and self.momentum != 0.0:
            raise InvalidConfig(f"momentum applies only to the ema variant, not {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "MethodVariant":
        """Parse "xbn", "axbn", ..., or "ema:0.5"; the inverse of spec."""
        if text == "ema":
            raise InvalidConfig("the ema variant requires a momentum, e.g. ema:0.9")
        if text.startswith("ema:"):
            try:
                momentum = float(text.split(":", 1)[1])
            except ValueError:
                raise InvalidConfig(f"bad ema momentum in {text!r}") from None
            return cls("ema", momentum=momentum)
        return cls(text)

    @property
    def spec(self) -> str:
        """The spelling parse() reads back exactly."""
        return f"ema:{self.momentum!r}" if self.kind == "ema" else self.kind

    @property
    def reference(self) -> str:
        return VARIANTS[self.kind][0]

    @property
    def stats_filter(self) -> str | None:
        return VARIANTS[self.kind][1]

    @property
    def uses_memory(self) -> bool:
        return self.reference != "no-xbm"

    def __str__(self) -> str:
        """Name of the run directory and of the summary's variant column."""
        if self.kind == "ema":
            return "ema" + np.format_float_positional(self.momentum, trim="-")
        return self.kind


@dataclass(frozen=True)
class TrainConfig:
    """A run's settings, one field each: the config-file keys, and with dashes the flags.

    Building it checks every setting, so the functions handed a TrainConfig
    (the optimizer, the kalman filter, the miner and losses) take it as valid.
    """

    batch_size: int = 16
    samples_per_class: int = 4
    memory_fraction: float = 0.5  # bank capacity as a share of the train rows
    epochs: int = 25  # main-stage epochs
    warmup_epochs: int = 2
    hidden_dims: tuple[int, ...] = (64, 32)
    embed_dim: int = 16
    lr: float = 1e-4  # main stage, AdamW
    weight_decay: float = 0.0  # AdamW's decoupled weight decay
    schedule_gamma: float = 0.33  # lr_at multiplies lr by it every schedule_every
    schedule_every: int = 15  # main epochs; 0 never decays
    warmup_lr: float = 1e-3  # plain gradient steps on the last layer
    pos_margin: float = 0.2  # the miner's margins, in distance units
    neg_margin: float = 0.8
    recall_ks: tuple[int, ...] = (1, 10)
    probe_drift: bool = True
    seed: int = 0
    q: float = 1.0  # kalman process-noise variance
    p0: float = 1.0  # kalman initial estimation variance
    r: float = 0.01  # kalman measurement-noise variance, scaled by 1/batch_size per step

    def __post_init__(self):
        if self.batch_size < 2:
            raise InvalidConfig(f"batch_size must be >= 2, got {self.batch_size}")
        _classes_per_batch(self.batch_size, self.samples_per_class)
        if self.embed_dim < 1:
            raise InvalidConfig(f"embed_dim must be >= 1, got {self.embed_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise InvalidConfig(f"hidden_dims must be positive, got {self.hidden_dims}")
        if _check_k_values(self.recall_ks)[0] != 1:
            # run() picks the best epoch by R@1
            raise InvalidConfig(f"recall_ks must start with 1, got {self.recall_ks}")
        for key in ("epochs", "warmup_epochs", "schedule_every", "seed"):
            if getattr(self, key) < 0:
                raise InvalidConfig(f"{key} must be >= 0, got {getattr(self, key)}")
        for key in ("memory_fraction", "schedule_gamma"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise InvalidConfig(f"{key} must be in [0, 1], got {getattr(self, key)}")
        for key in ("lr", "warmup_lr", "q", "p0"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise InvalidConfig(f"{key} must be finite and > 0, got {getattr(self, key)}")
        for key in ("weight_decay", "r"):
            if not 0.0 <= getattr(self, key) < math.inf:
                raise InvalidConfig(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not 0.0 <= self.pos_margin < self.neg_margin <= 2.0:
            raise InvalidConfig(
                "pos_margin and neg_margin must satisfy 0 <= pos_margin < neg_margin <= 2, "
                f"got {self.pos_margin}, {self.neg_margin}")

    def lr_at(self, main_epoch: int) -> float:
        """The main stage's learning rate in its main_epoch-th epoch (0-based)."""
        if self.schedule_every <= 0:
            return self.lr
        return self.lr * self.schedule_gamma ** (main_epoch // self.schedule_every)

    def resolve_capacity(self, train_size: int) -> int:
        return int(round(self.memory_fraction * train_size))


@dataclass(frozen=True)
class IterationRecord:
    epoch: int
    step: int  # global optimizer-step index
    stage: str  # "warmup" or "main"
    loss: float
    lr: float
    gain: float | None = None  # filter gain, filtered variants only (xbn: 1.0)
    drift_mean: float | None = None  # mean/max distance the probe rows moved since the last
    drift_max: float | None = None  # step's forward; None on a first step or with probe_drift off


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    stage: str
    mean_loss: float
    mean_drift: float | None  # epoch average of per-step mean drift
    max_drift: float | None  # epoch average of per-step max drift
    recall: dict[int, float]


@dataclass
class TrainResult:
    embedder: MLPEmbedder  # parameters of the best validation-R@1 epoch
    best_epoch: int
    best_recall: dict[int, float]


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def _classes_per_batch(batch_size: int, samples_per_class: int, n_classes: float = math.inf) -> int:
    """P = batch_size / samples_per_class classes per P-K batch, checked against n_classes."""
    if batch_size < 1 or samples_per_class < 1:
        raise InvalidConfig(
            f"batch_size and samples_per_class must be >= 1, got {batch_size}, {samples_per_class}"
        )
    if batch_size % samples_per_class:
        raise InvalidConfig(
            f"batch_size {batch_size} not divisible by samples_per_class {samples_per_class}"
        )
    p = batch_size // samples_per_class
    if n_classes < p:
        raise InvalidConfig(f"need >= {p} distinct classes, dataset has {n_classes}")
    return p


def sample_pk_batches(labels, batch_size: int, samples_per_class: int, seed) -> list[np.ndarray]:
    """Index batches of batch_size/samples_per_class distinct classes, K rows each.

    Classes with fewer than K instances are resampled with replacement. An
    epoch covers ceil(n / batch_size) batches; deterministic per seed.
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    p = _classes_per_batch(batch_size, samples_per_class, len(classes))
    pools = {c: np.where(labels == c)[0] for c in classes}
    rng = np.random.default_rng(seed)
    n_batches = math.ceil(len(labels) / batch_size)
    batches = []
    for _ in range(n_batches):
        chosen = rng.choice(classes, size=p, replace=False)
        rows = [
            rng.choice(pools[c], size=samples_per_class, replace=len(pools[c]) < samples_per_class)
            for c in chosen
        ]
        batches.append(np.concatenate(rows))
    return batches


class TrainingRun:
    """Stateful driver for one (config, dataset, variant) training run.

    Step-wise methods are public so diagnostics and paired-run comparisons can
    drive the loop manually; run() executes the full protocol.
    """

    def __init__(self, config: TrainConfig, dataset: FeatureDataset, variant: MethodVariant):
        self.config = config
        self.variant = variant
        self.dataset = dataset
        train_rows = dataset.rows(TAG_TRAIN)
        self.train_features = dataset.features[train_rows]
        self.train_labels = dataset.labels[train_rows]
        if len(self.train_labels) == 0:
            raise InvalidConfig("dataset has no train rows")
        # what the first epoch and the first validation would reject, rejected now
        _classes_per_batch(
            config.batch_size, config.samples_per_class, len(np.unique(self.train_labels))
        )
        self._validates = TAG_VAL_QUERY in dataset.splits
        if self._validates:
            single = dataset.single_set  # each query is then left out of its own gallery
            gallery = dataset.rows(TAG_VAL_QUERY if single else TAG_VAL_GALLERY)
            _check_k_values(config.recall_ks, len(gallery) - single)
        capacity = config.resolve_capacity(len(self.train_labels))
        if variant.uses_memory and 0 < capacity < config.batch_size:
            raise InvalidConfig(
                f"memory capacity {capacity} must be 0 or >= batch_size {config.batch_size}"
            )
        dims = (dataset.input_dim, *config.hidden_dims, config.embed_dim)
        self.embedder = MLPEmbedder(dims, seed=_rng(config.seed, 1))
        self.bank = MemoryBank(capacity, config.embed_dim)
        self.kalman_state = None
        # warmup never steps it, so the main stage starts it fresh
        self.optimizer = Optimizer(config, self.embedder)
        self.epoch = 0  # global epoch counter across both stages
        self.global_step = 0
        n_probe = min(config.batch_size, len(self.train_labels))
        self.probe_rows = _rng(config.seed, 2).choice(len(train_rows), n_probe, replace=False)
        self._prev_probe_z = None  # the probe rows' embeddings in the last successful forward

    @property
    def stage(self) -> str:
        return "warmup" if self.epoch < self.config.warmup_epochs else "main"

    def train_step(self, batch_indices: np.ndarray) -> IterationRecord:
        """One optimizer step on the given train-row indices.

        Order: embed the batch with the probe rows stacked after it; (filtered variants)
        observe batch stats, advance the filter, adapt the bank to its estimate; compute
        the loss against the variant's reference set; backprop and update; enqueue the
        batch; record how far the probe rows moved since the last step's forward. Warmup
        steps run as no-xbm and update the last layer alone, by plain gradient steps. A
        failed step is rolled back: bank, filter and probe state are as before the call.
        """
        config = self.config
        if config.probe_drift:  # the probe rows ride after the batch rows, outside the cache
            n = len(batch_indices)
            rows = np.concatenate((batch_indices, self.probe_rows))
            z, cache = self.embedder.forward(self.train_features[rows], cached=n)
            z, probe_z = z[:n], z[n:]
        else:
            z, cache = self.embedder.forward(self.train_features[batch_indices])
        batch = EmbeddingBatch(vectors=z, labels=self.train_labels[batch_indices])
        in_main = self.stage == "main"
        reference, stats_filter = VARIANTS[self.variant.kind if in_main else "no-xbm"]
        gain_val = None
        saved_bank = self.bank.state()
        saved_kalman = self.kalman_state
        try:
            if stats_filter is not None:
                obs = compute_moments(batch)
                if self.kalman_state is None:
                    self.kalman_state = kalman_init(obs, config)
                if stats_filter == "kalman":
                    self.kalman_state = kalman_step(self.kalman_state, obs, batch.n, config)
                else:
                    self.kalman_state = ema_step(self.kalman_state, obs, self.variant.momentum)
                gain_val = self.kalman_state.gain
                if len(self.bank) >= 2:
                    self.bank.adapt(
                        MomentStats(self.kalman_state.mean_est, self.kalman_state.std_est))
            out = xbm_loss(batch, self.bank, config, reference)
            if not np.isfinite(out.value):
                raise NonFiniteLoss("non-finite loss", self.global_step)
            grad = self.embedder.backward(cache, out.grad)
        except Exception:
            self.bank.restore(saved_bank)
            self.kalman_state = saved_kalman
            raise
        if in_main:
            lr = config.lr_at(self.epoch - config.warmup_epochs)
            self.optimizer.step(grad, lr)
        else:  # the last layer's weight and bias, the tail of params
            lr = config.warmup_lr
            head = slice(-self.embedder.weights[-1].size - self.embedder.biases[-1].size, None)
            self.embedder.params[head] -= lr * grad[head]
        if in_main and self.variant.uses_memory:
            self.bank.enqueue(batch)
        drift_mean = drift_max = None
        if config.probe_drift:
            if self._prev_probe_z is not None:
                diff = probe_z - self._prev_probe_z
                # what np.linalg.norm(diff, axis=1) computes, without its temporaries
                dists = np.sqrt(np.add.reduce(np.square(diff, out=diff), axis=1))
                drift_mean, drift_max = float(dists.mean()), float(dists.max())
            self._prev_probe_z = probe_z
        record = IterationRecord(
            epoch=self.epoch,
            step=self.global_step,
            stage=self.stage,
            loss=out.value,
            lr=lr,
            gain=gain_val,
            drift_mean=drift_mean,
            drift_max=drift_max,
        )
        self.global_step += 1
        return record

    def evaluate(self, embedder: MLPEmbedder | None = None) -> dict[int, float]:
        """Validation recall of embedder (default: the current one) at the configured k."""
        return evaluate(embedder or self.embedder, self.dataset, self.config.recall_ks)

    def epoch_batches(self) -> list[np.ndarray]:
        """This epoch's P-K batches; depends only on (seed, epoch, labels)."""
        seed = np.random.SeedSequence([self.config.seed, 3, self.epoch])
        return sample_pk_batches(
            self.train_labels, self.config.batch_size, self.config.samples_per_class, seed
        )

    def run_epoch(self, emit=lambda record: None) -> EpochRecord:
        """The epoch's steps and validation; then emits each finished step's record and its own."""
        records = []
        try:
            for idx in self.epoch_batches():
                records.append(self.train_step(idx))
            recall = self.evaluate() if self._validates else {}
        finally:  # after a raise too; a call between steps would cost each step 2-3%
            for record in records:
                emit(record)
        drift_means = [r.drift_mean for r in records if r.drift_mean is not None]
        drift_maxes = [r.drift_max for r in records if r.drift_max is not None]
        record = EpochRecord(
            epoch=self.epoch,
            stage=self.stage,
            mean_loss=float(np.mean([r.loss for r in records])) if records else 0.0,
            mean_drift=float(np.mean(drift_means)) if drift_means else None,
            max_drift=float(np.mean(drift_maxes)) if drift_maxes else None,
            recall=recall,
        )
        emit(record)
        self.epoch += 1
        return record

    def run(self, emit=lambda record: None) -> TrainResult:
        """Warmup epochs, then main epochs by run_epoch(emit); returns the best-R@1 parameters."""
        best_recall: dict[int, float] = {}
        best_epoch = -1
        total = self.config.warmup_epochs + self.config.epochs
        for _ in range(total):
            record = self.run_epoch(emit)
            r1 = record.recall.get(1)
            if r1 is not None and (best_epoch < 0 or r1 > best_recall.get(1, -1.0)):
                best_recall = dict(record.recall)
                best_embedder = self.embedder.clone()
                best_epoch = record.epoch
        if best_epoch < 0:
            # No validation signal (no val rows or zero epochs): final params.
            best_embedder = self.embedder.clone()
            best_recall = self.evaluate() if self._validates else {}
        return TrainResult(embedder=best_embedder, best_epoch=best_epoch, best_recall=best_recall)


def evaluate(embedder: MLPEmbedder, dataset: FeatureDataset, k_values) -> dict[int, float]:
    """Recall@k of embedder on dataset's validation rows, under its protocol.

    A single-set dataset scores its query rows against themselves with
    self-exclusion; otherwise the query rows are scored against the gallery rows.
    """
    def embedded(tag: int) -> EmbeddingBatch:
        rows = dataset.rows(tag)
        return EmbeddingBatch(embedder.embed(dataset.features, rows), dataset.labels[rows])

    if TAG_VAL_QUERY not in dataset.splits:
        raise InvalidConfig("dataset has no validation query rows")
    queries = embedded(TAG_VAL_QUERY)
    gallery = queries if dataset.single_set else embedded(TAG_VAL_GALLERY)
    return recall_at_k(queries, gallery, k_values)
