"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way — plain loops, two-pass
formulas, exact fractions — deliberately sharing no code (and ideally no
algorithmic shape) with the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def two_pass_moments(rows) -> tuple[list[float], list[float]]:
    """Column mean and population std via an explicit two-pass loop."""
    rows = [list(map(float, r)) for r in rows]
    n = len(rows)
    d = len(rows[0])
    means = []
    for j in range(d):
        means.append(math.fsum(r[j] for r in rows) / n)
    stds = []
    for j in range(d):
        var = math.fsum((r[j] - means[j]) ** 2 for r in rows) / n
        stds.append(math.sqrt(var))
    return means, stds


def kalman_trace(n_steps: int, q, r_eff, p0) -> list[dict]:
    """The five-equation scalar recursion carried out in exact arithmetic.

    Returns one dict per step with p_pred, gain, and p as Fractions
    (gain_interval 1; the innovation updates are left to the caller since they
    depend on the observations).
    """
    q, r_eff, p0 = Fraction(q), Fraction(r_eff), Fraction(p0)
    p = p0
    out = []
    for _ in range(n_steps):
        p_pred = p + q
        gain = p_pred / (p_pred + r_eff)
        p = (1 - gain) * p_pred
        out.append({"p_pred": p_pred, "gain": gain, "p": p})
    return out


def iterate_gain(q: float, r_eff: float, p0: float, n_iters: int) -> float:
    """Gain after n_iters recursion steps (floating point, gain_interval 1)."""
    p = p0
    gain = float("nan")
    for _ in range(n_iters):
        p_pred = p + q
        gain = p_pred / (p_pred + r_eff)
        p = (1.0 - gain) * p_pred
    return gain


def filtered_estimates(observations, gains):
    """Innovation recursion est <- est + K (obs - est), est0 = obs0, looped per dim."""
    est = [float(v) for v in observations[0]]
    for obs, gain in zip(observations[1:], gains):
        for j in range(len(est)):
            est[j] = est[j] + gain * (float(obs[j]) - est[j])
    return est


class FifoList:
    """Capacity-bounded FIFO of (vector, label) pairs on a plain python list."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: list[tuple[tuple, int]] = []

    def push_batch(self, vectors, labels) -> None:
        for vec, lab in zip(vectors, labels):
            self.items.append((tuple(float(v) for v in vec), int(lab)))
        while len(self.items) > self.capacity:
            self.items.pop(0)

    def vectors(self) -> list[tuple]:
        return [vec for vec, _ in self.items]

    def labels(self) -> list[int]:
        return [lab for _, lab in self.items]


class PerArrayOptimizer:
    """SGD/AdamW updating each weight and bias array on its own, with its own moments.

    params is a list of independent arrays, updated in place; step() touches
    only the arrays whose indices are in trainable. AdamW uses the usual
    betas (0.9, 0.999) and eps 1e-8.
    """

    def __init__(self, config, params):
        self.config = config
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads, trainable, epoch) -> None:
        cfg = self.config
        lr = cfg.lr_at(epoch)
        self.t += 1
        for idx in trainable:
            param, grad = params[idx], grads[idx]
            if cfg.kind == "sgd":
                if cfg.weight_decay:
                    grad = grad + cfg.weight_decay * param
                param -= lr * grad
            else:
                m, v = self.m[idx], self.v[idx]
                m *= 0.9
                m += (1.0 - 0.9) * grad
                v *= 0.999
                v += (1.0 - 0.999) * grad**2
                m_hat = m / (1.0 - 0.9**self.t)
                v_hat = v / (1.0 - 0.999**self.t)
                param -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
                if cfg.weight_decay:
                    param -= lr * cfg.weight_decay * param


def per_layer_backward(embedder, cache, grad_z):
    """(dW, db) per layer, each a fresh array, by the plain chain-rule loop.

    The same arithmetic as MLPEmbedder.backward, which writes the same values
    into one vector laid out like params; they must agree bit for bit.
    """
    u, s = cache["u"], cache["s"]
    radial = (u * grad_z).sum(axis=1) / s**3
    g = grad_z / s[:, None] - u * radial[:, None]
    grads = [None] * embedder.n_layers
    for idx in range(embedder.n_layers - 1, -1, -1):
        grads[idx] = (cache["layer_inputs"][idx].T @ g, g.sum(axis=0))
        if idx > 0:
            g = (g @ embedder.weights[idx].T) * cache["relu_masks"][idx - 1]
    return grads


def brute_force_pairs(batch_vectors, batch_labels, ref_vectors, ref_labels,
                      pos_margin, neg_margin, self_offset):
    """Double loop over every (query, reference) pair with the margin predicates."""
    positives, negatives = [], []
    for i in range(len(batch_vectors)):
        for j in range(len(ref_vectors)):
            d = 1.0 - sum(a * b for a, b in zip(batch_vectors[i], ref_vectors[j]))
            if batch_labels[i] == ref_labels[j]:
                if d > pos_margin and j != i + self_offset:
                    positives.append((i, j))
            elif d < neg_margin:
                negatives.append((i, j))
    return positives, negatives


def brute_force_contrastive(batch_vectors, batch_labels, ref_vectors, ref_labels,
                            pos_margin, neg_margin, self_offset) -> float:
    """Hinge means over the brute-force pair sets."""
    pos, neg = brute_force_pairs(batch_vectors, batch_labels, ref_vectors, ref_labels,
                                 pos_margin, neg_margin, self_offset)

    def dist(i, j):
        return 1.0 - sum(a * b for a, b in zip(batch_vectors[i], ref_vectors[j]))

    value = 0.0
    if pos:
        value += math.fsum(max(0.0, dist(i, j) - pos_margin) for i, j in pos) / len(pos)
    if neg:
        value += math.fsum(max(0.0, neg_margin - dist(i, j)) for i, j in neg) / len(neg)
    return value


def brute_force_triplet(batch_vectors, batch_labels, ref_vectors, ref_labels,
                        margin, self_offset) -> float:
    """Triple loop over (anchor, positive, negative); per-anchor mean then anchor mean."""

    def dist(i, j):
        return 1.0 - sum(a * b for a, b in zip(batch_vectors[i], ref_vectors[j]))

    totals = []
    for i in range(len(batch_vectors)):
        hinges = []
        for p in range(len(ref_vectors)):
            if batch_labels[i] != ref_labels[p] or p == i + self_offset:
                continue
            for n in range(len(ref_vectors)):
                if batch_labels[i] == ref_labels[n]:
                    continue
                hinges.append(max(0.0, dist(i, p) - dist(i, n) + margin))
        if hinges:
            totals.append(math.fsum(hinges) / len(hinges))
    if not totals:
        return 0.0
    return math.fsum(totals) / len(totals)


def naive_recall(query_vectors, query_labels, gallery_vectors, gallery_labels,
                 ks, exclude_self: bool):
    """recall@k by sorting every query's full similarity list (ties: lower index)."""
    out = {k: 0 for k in ks}
    n_q = len(query_vectors)
    for i in range(n_q):
        sims = []
        for j in range(len(gallery_vectors)):
            if exclude_self and j == i:
                continue
            s = sum(a * b for a, b in zip(query_vectors[i], gallery_vectors[j]))
            sims.append((-s, j))
        sims.sort()
        ranked = [j for _, j in sims]
        for k in ks:
            if any(gallery_labels[j] == query_labels[i] for j in ranked[:k]):
                out[k] += 1
    return {k: c / n_q for k, c in out.items()}


def central_diff_param_grads(embedder, loss_of_embedder, h: float = 1e-6):
    """Finite-difference d(loss)/d(param) for every weight and bias.

    loss_of_embedder: callable taking the embedder and returning a float; it is
    re-invoked with each parameter nudged +-h in place.
    """
    grads = []
    for w, b in zip(embedder.weights, embedder.biases):
        pair = []
        for arr in (w, b):
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_of_embedder(embedder)
                flat[idx] = orig - h
                down = loss_of_embedder(embedder)
                flat[idx] = orig
                gflat[idx] = (up - down) / (2.0 * h)
            pair.append(g)
        grads.append((pair[0], pair[1]))
    return grads


def relative_grad_error(analytic, numeric) -> float:
    """|ga - gf| / (|ga| + |gf|) over the flattened, concatenated gradients."""
    a = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in analytic])
    f = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in numeric])
    denom = np.linalg.norm(a) + np.linalg.norm(f)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - f) / denom)


def index_list_contrastive(batch_vectors, batch_labels, ref_vectors, ref_labels,
                           pos_margin, neg_margin, self_offset):
    """The index-list form of the contrastive loss: (value, grad w.r.t. batch rows).

    Pairs are argwhere lists over a freshly built distance matrix, hinges are
    clipped per pair, and per-pair weights are scattered back with np.add.at.
    The package's mask form must reproduce it bit for bit.
    """
    b = np.asarray(batch_vectors, dtype=np.float64)
    r = np.asarray(ref_vectors, dtype=np.float64)
    d = 1.0 - b @ r.T
    n, m = d.shape
    same = np.asarray(batch_labels)[:, None] == np.asarray(ref_labels)[None, :]
    is_self = np.arange(m)[None, :] == np.arange(n)[:, None] + self_offset
    pos = np.argwhere(same & (d > pos_margin) & ~is_self)
    neg = np.argwhere(~same & (d < neg_margin))
    weights = np.zeros_like(d)
    value = 0.0
    if len(pos):
        pd = d[pos[:, 0], pos[:, 1]]
        value += float(np.maximum(0.0, pd - pos_margin).mean())
        active = pd > pos_margin
        np.add.at(weights, (pos[active, 0], pos[active, 1]), 1.0 / len(pos))
    if len(neg):
        nd = d[neg[:, 0], neg[:, 1]]
        value += float(np.maximum(0.0, neg_margin - nd).mean())
        active = nd < neg_margin
        np.add.at(weights, (neg[active, 0], neg[active, 1]), -1.0 / len(neg))
    grad = -(weights @ r)
    lo = max(self_offset, 0)
    hi = min(self_offset + n, m)
    if hi > lo:
        grad[lo - self_offset : hi - self_offset] += -(weights[:, lo:hi].T @ b)
    return value, grad
