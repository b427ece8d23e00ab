"""Metric-learning engine with a statistics-corrected cross-batch memory.

An MLP embedder is trained with a pair-mined contrastive loss whose reference
set is enlarged by a FIFO memory of past embeddings. Because those embeddings
were produced by older parameters, their distribution drifts away from the
current batch's; the memory is therefore re-aligned every step by a
per-dimension affine transform targeting either the raw minibatch moments or
Kalman-filtered estimates of the dataset moments. Retrieval quality is scored
by recall@k over cosine similarity.
"""

from .data import (
    TAG_TRAIN,
    TAG_VAL_GALLERY,
    TAG_VAL_QUERY,
    FeatureDataset,
    SyntheticConfig,
    dataset_from_embeddings,
    generate_synthetic,
    load_csv,
    load_features,
    save_features,
)
from .embedder import (
    EPS_NORM,
    MLPEmbedder,
    Optimizer,
    OptimizerConfig,
    load_checkpoint,
    save_checkpoint,
)
from .errors import (
    CrossbatchError,
    DimensionMismatch,
    FormatError,
    InsufficientSamples,
    InvalidConfig,
    NonFiniteInput,
    NonFiniteLoss,
    NotNormalized,
    ShapeMismatch,
)
from .kalman import (
    KalmanConfig,
    KalmanState,
    ema_step,
    kalman_init,
    kalman_step,
    steady_state_gain,
)
from .losses import (
    LossOutput,
    MinedPairs,
    PairMinerConfig,
    contrastive_loss,
    cosine_distance,
    distance_matrix,
    mine_pairs,
    triplet_loss,
    xbm_loss,
)
from .memory import MemoryBank
from .moments import (
    EPS_STD,
    EmbeddingBatch,
    MomentStats,
    compute_moments,
    diag_gaussian_kl,
    xbn_transform,
)
from .retrieval import RetrievalProtocol, recall_at_k
from .training import (
    EpochRecord,
    IterationRecord,
    MethodVariant,
    TrainConfig,
    TrainingRun,
    TrainResult,
    run_training,
    sample_pk_batches,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # statistics and the moment-matching transform
    "EPS_STD",
    "EmbeddingBatch",
    "MomentStats",
    "compute_moments",
    "xbn_transform",
    "diag_gaussian_kl",
    # filtered statistics estimation
    "KalmanConfig",
    "KalmanState",
    "kalman_init",
    "kalman_step",
    "ema_step",
    "steady_state_gain",
    # embedding memory
    "MemoryBank",
    # losses and mining
    "PairMinerConfig",
    "MinedPairs",
    "LossOutput",
    "cosine_distance",
    "distance_matrix",
    "mine_pairs",
    "contrastive_loss",
    "triplet_loss",
    "xbm_loss",
    # embedder and optimizers
    "EPS_NORM",
    "MLPEmbedder",
    "OptimizerConfig",
    "Optimizer",
    "save_checkpoint",
    "load_checkpoint",
    # evaluation
    "RetrievalProtocol",
    "recall_at_k",
    # datasets and formats
    "TAG_TRAIN",
    "TAG_VAL_QUERY",
    "TAG_VAL_GALLERY",
    "FeatureDataset",
    "SyntheticConfig",
    "generate_synthetic",
    "save_features",
    "load_features",
    "load_csv",
    "dataset_from_embeddings",
    # training protocol
    "MethodVariant",
    "TrainConfig",
    "IterationRecord",
    "EpochRecord",
    "TrainResult",
    "TrainingRun",
    "run_training",
    "sample_pk_batches",
    # errors
    "CrossbatchError",
    "InsufficientSamples",
    "DimensionMismatch",
    "ShapeMismatch",
    "InvalidConfig",
    "NotNormalized",
    "NonFiniteInput",
    "FormatError",
    "NonFiniteLoss",
]
