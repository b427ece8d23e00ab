"""MLP embedder with final L2 normalization, exact backprop, and AdamW.

The embedder maps raw feature vectors through fully connected ReLU layers to a
d-dimensional output, then normalizes each row to the unit sphere. Everything
is float64 and deterministic given (layer dims, seed). Checkpoints use a small
self-describing binary format.
"""

from __future__ import annotations

import math
import struct
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError, InvalidConfig, NonFiniteInput, ShapeMismatch

if TYPE_CHECKING:
    from .training import TrainConfig

__all__ = [
    "EPS_NORM",
    "MLPEmbedder",
    "Optimizer",
    "save_checkpoint",
    "load_checkpoint",
]

# Added inside the normalization denominator: z = u / sqrt(|u|^2 + EPS_NORM).
# Keeps the map smooth at u = 0 while staying within 1e-12 of plain u/|u|
# for unit-scale inputs.
EPS_NORM = 1e-12

# Bytes of the widest layer output of one embed() block: 512 rows at width 64.
_BLOCK_BYTES = 256 * 1024

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
        try:
            params = np.zeros(size)
        except ValueError:  # numpy's refusal of a size it cannot index, before allocating
            raise InvalidConfig(f"layer_dims {dims} need {size} parameters, too many") from None
        self._bind(dims, params)
        rng = np.random.default_rng(seed)
        for w in self.weights:
            limit = 1.0 / math.sqrt(w.shape[0])
            w[...] = rng.uniform(-limit, limit, size=w.shape)

    def _bind(self, dims: tuple[int, ...], params: np.ndarray) -> None:
        """Own params and lay out its per-layer slices once, for layers() and weights/biases."""
        self.layer_dims = dims
        self.params = params
        self._layout, offset = [], 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            end = offset + fan_in * fan_out
            self._layout.append((slice(offset, end), (fan_in, fan_out), slice(end, end + fan_out)))
            offset = end + fan_out
        layers = self.layers(params)
        self.weights = [w for w, _ in layers]
        self.biases = [b for _, b in layers]

    def layers(self, vector: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views of a vector laid out like params."""
        return [(vector[w].reshape(shape), vector[b]) for w, shape, b in self._layout]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def embed_dim(self) -> int:
        return self.layer_dims[-1]

    def forward(self, inputs: np.ndarray, cached: int | None = None) -> tuple[np.ndarray, dict]:
        """Embeddings plus the cache backward() needs for the leading cached rows (default all).

        Every output row has unit L2 norm (within EPS_NORM rounding), whatever rows share the pass.
        """
        layer_inputs = []
        u, s = self._run(inputs, layer_inputs)
        z = u / s[:, None]
        if cached is not None:
            layer_inputs, u, s = [a[:cached] for a in layer_inputs], u[:cached], s[:cached]
        return z, {"layer_inputs": layer_inputs, "u": u, "s": s}

    def embed(self, inputs: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """forward()'s embeddings of inputs, or of inputs[rows], bit for bit, with no cache kept.

        Rows run in balanced blocks under _BLOCK_BYTES, of 4 rows at least, so only
        n == 1 gives a 1-row block, which numpy multiplies by gemv, rounding unlike gemm."""
        inputs = np.atleast_1d(inputs)  # a scalar fails _run's shape check, not len()
        n = len(inputs) if rows is None else len(rows)
        out = np.empty((n, self.embed_dim))
        blocks = max(1, -(-n // max(4, _BLOCK_BYTES // (8 * max(self.layer_dims)))))
        for i in range(blocks):  # n == 0 runs one empty block, which checks the shape
            lo, hi = n * i // blocks, n * (i + 1) // blocks
            u, s = self._run(inputs[lo:hi] if rows is None else inputs[rows[lo:hi]], None)
            np.divide(u, s[:, None], out=out[lo:hi])
        return out

    def _run(self, inputs: np.ndarray, layer_inputs: list | None) -> tuple[np.ndarray, np.ndarray]:
        """The layer loop of forward() and embed(): the last layer's output u and
        its row norms s; each layer's input goes to layer_inputs unless it is None.

        Bias and ReLU update each layer's fresh output in place. The ReLU is
        fmax(h, 0) + 0, which maps -0.0 and NaN to +0.0 as np.where(h > 0, h, 0) does.
        """
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeMismatch(f"inputs must be (n, {self.input_dim}), got shape {x.shape}")
        if not np.isfinite(x).all():
            raise NonFiniteInput("embedder inputs contain NaN or infinity")
        a = x
        for idx, (w, b) in enumerate(zip(self.weights, self.biases)):
            if layer_inputs is not None:
                layer_inputs.append(a)
            a = a @ w
            a += b
            if idx < self.n_layers - 1:
                np.fmax(a, 0.0, out=a)
                a += 0.0
        return a, np.sqrt((a * a).sum(axis=1) + EPS_NORM)

    def backward(self, cache: dict, grad_z: np.ndarray) -> np.ndarray:
        """Gradient of the loss w.r.t. params, laid out like params, for
        d(loss)/d(embeddings) = grad_z; layers() views it per layer.

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
        grad = np.empty_like(self.params)
        layers = self.layers(grad)
        for idx in range(self.n_layers - 1, -1, -1):
            a_in = cache["layer_inputs"][idx]
            if a_in.shape[0] != grad_z.shape[0]:
                raise ShapeMismatch("cache does not match grad_z batch size")
            dw, db = layers[idx]
            np.matmul(a_in.T, g, out=dw)
            g.sum(axis=0, out=db)
            if idx > 0:  # the ReLU's mask: its output is > 0 where its input was
                g = (g @ self.weights[idx].T) * (a_in > 0.0)
        return grad

    @classmethod
    def _from_vector(cls, layer_dims, params: np.ndarray) -> "MLPEmbedder":
        """An embedder that owns the given parameter vector, without initializing one."""
        embedder = cls.__new__(cls)
        embedder._bind(tuple(layer_dims), params)
        return embedder

    def clone(self) -> "MLPEmbedder":
        """Deep copy of the parameters."""
        return MLPEmbedder._from_vector(self.layer_dims, self.params.copy())


# AdamW's moment decay rates and denominator guard, fixed at the usual values.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Optimizer:
    """AdamW (ADAM_BETA1/ADAM_BETA2/ADAM_EPS, decoupled weight_decay) state for one embedder."""

    def __init__(self, config: TrainConfig, embedder: MLPEmbedder):
        self.config = config
        self.t = 0
        self._params = embedder.params
        self._m = np.zeros_like(self._params)
        self._v = np.zeros_like(self._params)
        # AdamW's step quotient lr * m_hat / (sqrt(v_hat) + eps), built in place
        self._num = np.empty_like(self._params)
        self._den = np.empty_like(self._params)

    def step(self, grad: np.ndarray, lr: float) -> None:
        """One in-place update of params at learning rate lr (TrainConfig.lr_at's).

        grad is laid out like params (MLPEmbedder.backward's output); every
        element is updated in one pass, by the same arithmetic as alone.
        """
        param, m, v, num, den = self._params, self._m, self._v, self._num, self._den
        if grad.shape != param.shape:
            raise ShapeMismatch(f"gradient shape {grad.shape} != parameter shape {param.shape}")
        self.t += 1
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, grad, out=num)
        v *= ADAM_BETA2
        np.square(grad, out=den)
        v += np.multiply(1.0 - ADAM_BETA2, den, out=den)
        np.divide(m, 1.0 - ADAM_BETA1**self.t, out=num)
        num *= lr
        np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**self.t, out=den), out=den)
        den += ADAM_EPS
        param -= np.divide(num, den, out=num)
        if self.config.weight_decay:
            param -= np.multiply(lr * self.config.weight_decay, param, out=num)


def save_checkpoint(embedder: MLPEmbedder, path) -> None:
    """Write parameters to a self-describing little-endian binary file.

    Layout: magic "XBNC", version u16, flags u16 (1: 64-bit floats, the only value),
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
    if flags != _FLAG_FLOAT64:
        raise FormatError(f"unsupported checkpoint flags {flags:#x}", 6)
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
        offset += (fan_in + 1) * fan_out * 8
        if len(blob) < offset:
            raise FormatError(f"truncated parameters for layer {idx}", len(blob))
    if offset != len(blob):
        raise FormatError("trailing bytes after parameters", offset)
    count = (offset - start) // 8
    params = np.frombuffer(blob, dtype="<f8", count=count, offset=start).astype(np.float64)
    return MLPEmbedder._from_vector(dims, params)
