"""MLP embedder with final L2 normalization, exact backprop, and optimizers.

The embedder maps raw feature vectors through fully connected ReLU layers to a
d-dimensional output, then normalizes each row to the unit sphere. Everything
is float64 and deterministic given (layer dims, seed). Checkpoints use a small
self-describing binary format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidConfig, NonFiniteInput, ShapeMismatch

__all__ = [
    "EPS_NORM",
    "MLPEmbedder",
    "OptimizerConfig",
    "Optimizer",
    "save_checkpoint",
    "load_checkpoint",
]

# Added inside the normalization denominator: z = u / sqrt(|u|^2 + EPS_NORM).
# Keeps the map smooth at u = 0 while staying within 1e-12 of plain u/|u|
# for unit-scale inputs.
EPS_NORM = 1e-12

CHECKPOINT_MAGIC = b"XBNC"
CHECKPOINT_VERSION = 1
_FLAG_FLOAT64 = 1


class MLPEmbedder:
    """Fully connected ReLU network emitting unit-norm embeddings.

    layer_dims = (input_dim, hidden..., output_dim). A single-element tuple is
    the zero-depth embedder: identity followed by normalization. Weights are
    initialized uniformly in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases at zero.

    All parameters live in one float64 vector, params, in checkpoint order:
    per layer the weight matrix (row-major), then the bias. weights and
    biases are views into it, so update them in place, never rebind them.
    """

    def __init__(self, layer_dims, seed=0):
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise InvalidConfig(f"layer_dims must be >= 1 positive sizes, got {layer_dims}")
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))
        self._bind(dims, np.zeros(size))
        rng = np.random.default_rng(seed)
        for w in self.weights:
            limit = 1.0 / math.sqrt(w.shape[0])
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        self.frozen_below_last = False

    def _bind(self, dims: tuple[int, ...], params: np.ndarray) -> None:
        """Own params and point weights and biases at their slices of it."""
        self.layer_dims = dims
        self.params = params
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            self.weights.append(params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
            offset += fan_in * fan_out
            self.biases.append(params[offset : offset + fan_out])
            offset += fan_out

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def embed_dim(self) -> int:
        return self.layer_dims[-1]

    def freeze_all_but_last(self) -> None:
        """Restrict optimizer updates to the final projection layer."""
        if self.n_layers < 1:
            raise InvalidConfig("zero-depth embedder has no layers to freeze")
        self.frozen_below_last = True

    def unfreeze(self) -> None:
        self.frozen_below_last = False

    def trainable_layers(self) -> range:
        if self.frozen_below_last:
            return range(self.n_layers - 1, self.n_layers)
        return range(self.n_layers)

    def trainable_slice(self) -> slice:
        """The part of params the trainable layers own: all of it, or the last layer's."""
        first = self.trainable_layers().start
        frozen = zip(self.weights[:first], self.biases[:first])
        return slice(sum(w.size + b.size for w, b in frozen), None)

    def forward(self, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
        """Embeddings plus the cache backward() needs.

        Every output row has unit L2 norm (within EPS_NORM rounding).
        """
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeMismatch(
                f"inputs must be (n, {self.input_dim}), got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise NonFiniteInput("embedder inputs contain NaN or infinity")
        a = x
        layer_inputs = []
        relu_masks = []
        for idx, (w, b) in enumerate(zip(self.weights, self.biases)):
            layer_inputs.append(a)
            h = a @ w + b
            if idx < self.n_layers - 1:
                mask = h > 0.0
                relu_masks.append(mask)
                a = np.where(mask, h, 0.0)
            else:
                a = h
        u = a
        s = np.sqrt((u * u).sum(axis=1) + EPS_NORM)
        z = u / s[:, None]
        cache = {
            "layer_inputs": layer_inputs,
            "relu_masks": relu_masks,
            "u": u,
            "s": s,
        }
        return z, cache

    def embed(self, inputs: np.ndarray) -> np.ndarray:
        z, _ = self.forward(inputs)
        return z

    def backward(self, cache: dict, grad_z: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Parameter gradients (dW, db) per layer for d(loss)/d(embeddings) = grad_z.

        Exact chain rule through the normalization: with s = sqrt(|u|^2 + eps),
        dL/du = g/s - u (u.g)/s^3, i.e. the scaled projection that annihilates
        the radial component.
        """
        u, s = cache["u"], cache["s"]
        grad_z = np.asarray(grad_z, dtype=np.float64)
        if grad_z.shape != u.shape:
            raise ShapeMismatch(f"grad_z shape {grad_z.shape} != embeddings shape {u.shape}")
        radial = (u * grad_z).sum(axis=1) / s**3
        g = grad_z / s[:, None] - u * radial[:, None]
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * self.n_layers  # type: ignore
        for idx in range(self.n_layers - 1, -1, -1):
            a_in = cache["layer_inputs"][idx]
            if a_in.shape[0] != grad_z.shape[0]:
                raise ShapeMismatch("cache does not match grad_z batch size")
            grads[idx] = (a_in.T @ g, g.sum(axis=0))
            if idx > 0:
                g = (g @ self.weights[idx].T) * cache["relu_masks"][idx - 1]
        return grads

    @classmethod
    def _from_vector(cls, layer_dims, params: np.ndarray) -> "MLPEmbedder":
        """An unfrozen embedder that owns the given parameter vector, without initializing one."""
        embedder = cls.__new__(cls)
        embedder._bind(tuple(layer_dims), params)
        embedder.frozen_below_last = False
        return embedder

    def clone(self) -> "MLPEmbedder":
        """Deep copy of parameters and freeze state."""
        other = MLPEmbedder._from_vector(self.layer_dims, self.params.copy())
        other.frozen_below_last = self.frozen_below_last
        return other


@dataclass(frozen=True)
class OptimizerConfig:
    """Update rule plus step learning-rate schedule.

    kind "sgd" (optional heavy-ball momentum, conventional coupled weight
    decay) or "adamw" (decoupled weight decay). The schedule multiplies the
    learning rate by schedule_gamma every schedule_every epochs;
    schedule_every 0 disables decay.
    """

    kind: str = "adamw"
    learning_rate: float = 1e-4
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    schedule_gamma: float = 1.0
    schedule_every: int = 0

    def validate(self) -> None:
        if self.kind not in ("sgd", "adamw"):
            raise InvalidConfig(f"optimizer kind must be sgd or adamw, got {self.kind!r}")
        if not self.learning_rate > 0:
            raise InvalidConfig(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfig(f"momentum must be in [0, 1), got {self.momentum}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise InvalidConfig(f"betas must be in [0, 1), got ({self.beta1}, {self.beta2})")
        if not 0.0 <= self.schedule_gamma <= 1.0:
            raise InvalidConfig(f"schedule_gamma must be in [0, 1], got {self.schedule_gamma}")
        if self.schedule_every < 0:
            raise InvalidConfig(f"schedule_every must be >= 0, got {self.schedule_every}")
        if self.weight_decay < 0:
            raise InvalidConfig(f"weight_decay must be >= 0, got {self.weight_decay}")

    def lr_at(self, epoch: int) -> float:
        if self.schedule_every <= 0:
            return self.learning_rate
        return self.learning_rate * self.schedule_gamma ** (epoch // self.schedule_every)


class Optimizer:
    """Update state for one embedder, flat in its parameter order; respects its freeze flag."""

    def __init__(self, config: OptimizerConfig, embedder: MLPEmbedder):
        config.validate()
        self.config = config
        self.t = 0
        self._m = np.zeros_like(embedder.params)
        self._v = np.zeros_like(embedder.params)

    def step(
        self,
        embedder: MLPEmbedder,
        grads: list[tuple[np.ndarray, np.ndarray]],
        epoch: int,
    ) -> None:
        """One in-place parameter update at the scheduled learning rate.

        The trainable layers' parameters are updated as one slice of the
        parameter vector, each element by the same arithmetic as alone. Frozen
        layers are skipped entirely: their parameters and state stay
        bit-identical.
        """
        if len(grads) != embedder.n_layers:
            raise ShapeMismatch(f"got {len(grads)} gradients for {embedder.n_layers} layers")
        cfg = self.config
        lr = cfg.lr_at(epoch)
        self.t += 1
        part = embedder.trainable_slice()
        param = embedder.params[part]
        grad = np.empty_like(param)
        offset = 0
        for idx in embedder.trainable_layers():
            layer = (embedder.weights[idx], embedder.biases[idx])
            for layer_param, layer_grad in zip(layer, grads[idx]):
                if layer_grad.shape != layer_param.shape:
                    raise ShapeMismatch(
                        f"gradient shape {layer_grad.shape} != "
                        f"parameter shape {layer_param.shape}"
                    )
                grad[offset : offset + layer_param.size] = layer_grad.ravel()
                offset += layer_param.size
        if cfg.kind == "sgd":
            if cfg.weight_decay:
                grad += cfg.weight_decay * param
            buf = self._m[part]
            buf *= cfg.momentum
            buf += grad
            param -= lr * buf
        else:
            m = self._m[part]
            v = self._v[part]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * grad
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * grad**2
            m_hat = m / (1.0 - cfg.beta1**self.t)
            v_hat = v / (1.0 - cfg.beta2**self.t)
            param -= lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
            if cfg.weight_decay:
                param -= lr * cfg.weight_decay * param


def save_checkpoint(embedder: MLPEmbedder, path) -> None:
    """Write parameters to a self-describing little-endian binary file.

    Layout: magic "XBNC", version u16, flags u16 (bit 0: 64-bit floats),
    u32 layer-dims count, the dims as u32s, then per layer the weight matrix
    (row-major) followed by the bias vector.
    """
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<HHI", CHECKPOINT_VERSION, _FLAG_FLOAT64, len(embedder.layer_dims)))
        f.write(np.asarray(embedder.layer_dims, dtype="<u4").tobytes())
        f.write(embedder.params.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> MLPEmbedder:
    """Rebuild an embedder from save_checkpoint output (bit-exact round trip)."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 4 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic", 0)
    if len(blob) < 12:
        raise FormatError("truncated checkpoint header", len(blob))
    version, flags, n_dims = struct.unpack_from("<HHI", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", 4)
    dtype = np.dtype("<f8") if flags & _FLAG_FLOAT64 else np.dtype("<f4")
    offset = 12
    if len(blob) < offset + 4 * n_dims:
        raise FormatError("truncated layer dims", len(blob))
    dims = np.frombuffer(blob, dtype="<u4", count=n_dims, offset=offset).tolist()
    offset += 4 * n_dims
    if n_dims < 1 or any(d < 1 for d in dims):
        raise FormatError("invalid layer dims", 12)
    # Check the file holds every claimed parameter before allocating any, so a
    # short file that claims huge layers fails without building them.
    start = offset
    for idx, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        offset += (fan_in + 1) * fan_out * dtype.itemsize
        if len(blob) < offset:
            raise FormatError(f"truncated parameters for layer {idx}", len(blob))
    if offset != len(blob):
        raise FormatError("trailing bytes after parameters", offset)
    count = (offset - start) // dtype.itemsize
    params = np.frombuffer(blob, dtype=dtype, count=count, offset=start).astype(np.float64)
    return MLPEmbedder._from_vector(dims, params)
