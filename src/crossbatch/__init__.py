"""Metric-learning engine with a statistics-corrected cross-batch memory.

An MLP embedder is trained with a pair-mined contrastive loss whose reference
set is enlarged by a FIFO memory of past embeddings. Because those embeddings
were produced by older parameters, their distribution drifts away from the
current batch's; the memory is therefore re-aligned every step by a
per-dimension affine transform targeting either the raw minibatch moments or
Kalman-filtered estimates of the dataset moments. Retrieval quality is scored
by recall@k over cosine similarity.
"""

from . import data, embedder, errors, kalman, losses, memory, moments, retrieval, training
from .data import *
from .embedder import *
from .errors import *
from .kalman import *
from .losses import *
from .memory import *
from .moments import *
from .retrieval import *
from .training import *

__version__ = "0.1.0"

# Each module's __all__ is the only list of its public names.
_MODULES = (data, embedder, errors, kalman, losses, memory, moments, retrieval, training)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
