"""Release acceptance suite.

One test per shipped guarantee, each printing a single machine-greppable
verdict line (written to the real stdout so it survives pytest's capture)
before asserting. A1-A5 and A9 are fast property checks; A6-A8 share a
module-scoped matrix of 27 desk-scale training runs, spread over one worker
process per CPU.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from crossbatch import (
    TAG_TRAIN,
    EmbeddingBatch,
    FeatureDataset,
    KalmanConfig,
    MLPEmbedder,
    MemoryBank,
    MethodVariant,
    MomentStats,
    OptimizerConfig,
    PairMinerConfig,
    SyntheticConfig,
    TrainConfig,
    TrainingRun,
    contrastive_loss,
    diag_gaussian_kl,
    generate_synthetic,
    kalman_init,
    kalman_step,
    load_checkpoint,
    load_features,
    mine_pairs,
    recall_at_k,
    run_training,
    save_checkpoint,
    save_features,
    steady_state_gain,
    triplet_loss,
    xbm_loss,
)
from oracles import (
    brute_force_pairs,
    brute_force_triplet,
    central_diff_param_grads,
    filtered_estimates,
    iterate_gain,
    kalman_trace,
    naive_recall,
    relative_grad_error,
)

# Desk-scale benchmark knobs. The constant main-stage learning rate (no decay)
# keeps the embedder moving through all 25 epochs, which is the regime the
# memory-staleness comparisons are about; the cluster spread sets task
# difficulty so that memory coverage still pays off over the no-memory
# baseline. Everything else is the library default.
DESK_STD = 1.02
DESK_LR = 2e-3
DESK_SEEDS = (0, 1, 2)
POINT = 0.01  # one "point" of recall@1, in fraction units


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    # capture is suspended so the verdict survives plain (fd-captured) runs
    with capsys.disabled():
        sys.stdout.write(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})\n")
        sys.stdout.flush()
    assert ok, f"{name}: {detail}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# A1: adapting a bank onto target statistics matches them essentially exactly


def test_a1_moment_matching_exact(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_mean = worst_std = worst_kl = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 65))
        n = int(rng.integers(2, 513))
        vectors = rng.uniform(-3.0, 3.0, d) + rng.uniform(0.1, 3.0, d) * rng.standard_normal((n, d))
        bank = MemoryBank(capacity=n, dim=d)
        bank.enqueue(EmbeddingBatch(vectors=vectors, labels=rng.integers(0, 5, size=n)))
        target = MomentStats(mean=rng.uniform(-3.0, 3.0, d), std=rng.uniform(0.1, 3.0, d))
        bank.adapt(target)
        got = bank.stats()
        worst_mean = max(worst_mean, float(np.abs(got.mean - target.mean).max()))
        worst_std = max(worst_std, float(np.abs(got.std - target.std).max()))
        worst_kl = max(worst_kl, diag_gaussian_kl(got, target))
    elapsed = time.perf_counter() - t0
    ok = worst_mean < 1e-9 and worst_std < 1e-9 and worst_kl < 1e-9 and elapsed < 5.0
    _verdict(
        capsys,
        "A1 moment matching",
        ok,
        f"1000 banks d<=64 n<=512: |mean err| {worst_mean:.1e}, |std err| {worst_std:.1e}, "
        f"KL {worst_kl:.1e}, {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------
# A2: degenerate-parameter variants collapse onto each other, step for step


def _train_only_dataset() -> FeatureDataset:
    # 80 train rows, no validation rows, so stepping is pure optimization.
    rng = np.random.default_rng(7)
    labels = np.repeat(np.arange(10), 8)
    centers = rng.normal(size=(10, 12))
    features = centers[labels] + 0.8 * rng.standard_normal((labels.size, 12))
    return FeatureDataset(features=features, labels=labels,
                          splits=np.full(labels.size, TAG_TRAIN, dtype=np.uint8))


def _reduction_config(**overrides) -> TrainConfig:
    base = dict(
        batch_size=16,
        samples_per_class=4,
        memory_fraction=0.5,
        epochs=0,  # stepped manually
        warmup_epochs=0,
        hidden_dims=(16,),
        embed_dim=8,
        probe_drift=False,
        seed=11,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _lockstep_worst_rel(run_a: TrainingRun, run_b: TrainingRun, n_steps: int) -> float:
    """Drive two runs over identical batch sequences; worst per-step loss and
    final-parameter relative difference."""
    worst = 0.0
    steps = 0
    while steps < n_steps:
        batches = run_a.epoch_batches()
        other = run_b.epoch_batches()
        assert all(np.array_equal(x, y) for x, y in zip(batches, other))
        for idx in batches:
            rec_a = run_a.train_step(idx)
            rec_b = run_b.train_step(idx)
            worst = max(worst, _rel(rec_a.loss, rec_b.loss))
            steps += 1
            if steps == n_steps:
                break
        else:
            run_a.epoch += 1
            run_b.epoch += 1
            continue
        break
    params_a = run_a.embedder.weights + run_a.embedder.biases
    params_b = run_b.embedder.weights + run_b.embedder.biases
    for arr_a, arr_b in zip(params_a, params_b):
        scale = max(float(np.abs(arr_a).max()), float(np.abs(arr_b).max()), 1e-300)
        worst = max(worst, float(np.abs(arr_a - arr_b).max()) / scale)
    return worst


def test_a2_reduction_identities(capsys):
    dataset = _train_only_dataset()
    n_steps = 200
    worst = {}

    # zero measurement noise: the filter copies the batch moments every step
    cfg = _reduction_config(kalman=KalmanConfig(q=1.0, r=0.0, p0=1.0, gain_interval=1))
    worst["axbn(r=0)=xbn"] = _lockstep_worst_rel(
        TrainingRun(cfg, dataset, MethodVariant("axbn")),
        TrainingRun(cfg, dataset, MethodVariant("xbn")),
        n_steps,
    )

    cfg = _reduction_config()
    worst["ema(0)=xbn"] = _lockstep_worst_rel(
        TrainingRun(cfg, dataset, MethodVariant("ema", momentum=0.0)),
        TrainingRun(cfg, dataset, MethodVariant("xbn")),
        n_steps,
    )

    cfg = _reduction_config(memory_capacity=0)
    worst["xbm(cap=0)=no-xbm"] = _lockstep_worst_rel(
        TrainingRun(cfg, dataset, MethodVariant("xbm")),
        TrainingRun(cfg, dataset, MethodVariant("no-xbm")),
        n_steps,
    )

    # star run: its per-step loss must equal the sum of the two parts
    # recomputed read-only on the run's own pre-step state
    cfg = _reduction_config()
    run = TrainingRun(cfg, dataset, MethodVariant("xbm-star"))
    star_worst = 0.0
    steps = 0
    while steps < n_steps:
        for idx in run.epoch_batches():
            z = run.embedder.embed(run.train_features[idx])
            batch = EmbeddingBatch(vectors=z, labels=run.train_labels[idx])
            parts = (
                xbm_loss(batch, run.bank, cfg.miner, "no-xbm").value
                + xbm_loss(batch, run.bank, cfg.miner, "xbm").value
            )
            star_worst = max(star_worst, _rel(run.train_step(idx).loss, parts))
            steps += 1
            if steps == n_steps:
                break
        else:
            run.epoch += 1
            continue
        break
    worst["star=base+memory"] = star_worst

    overall = max(worst.values())
    _verdict(
        capsys,
        "A2 reduction identities",
        overall <= 1e-12,
        f"{n_steps} paired steps each, worst rel diff "
        + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )


# --------------------------------------------------------------------------
# A3: the scalar gain recursion, its steady state, and scale invariance


def test_a3_kalman_recursion(capsys):
    # exact-fraction trace at unit noise; the first two gains are 2/3 and 5/8
    trace = kalman_trace(10, q=1, r_eff=1, p0=1)
    assert trace[0]["gain"] == Fraction(2, 3)
    assert trace[1]["gain"] == Fraction(5, 8)

    rng = np.random.default_rng(3)
    obs = [
        MomentStats(mean=rng.uniform(-1.0, 1.0, 4), std=rng.uniform(0.5, 2.0, 4))
        for _ in range(11)
    ]
    cfg = KalmanConfig(q=1.0, r=1.0, p0=1.0, gain_interval=1)
    state = kalman_init(obs[0], cfg)
    worst_trace = 0.0
    gains = []
    for i in range(10):
        state = kalman_step(state, obs[i + 1], 1, cfg)  # batch_size 1 makes r' = r
        worst_trace = max(worst_trace, abs(state.gain - float(trace[i]["gain"])))
        worst_trace = max(worst_trace, abs(state.p - float(trace[i]["p"])))
        gains.append(state.gain)
    oracle_mean = filtered_estimates([o.mean for o in obs], gains)
    worst_trace = max(worst_trace, float(np.abs(state.mean_est - np.array(oracle_mean)).max()))

    # convergence to the closed-form fixed point by step 200
    cfg2 = KalmanConfig(q=0.05, r=2.0, p0=10.0, gain_interval=1)
    state = kalman_init(obs[0], cfg2)
    for _ in range(200):
        state = kalman_step(state, obs[1], 4, cfg2)
    k_star = steady_state_gain(cfg2, 4)
    gap = abs(state.gain - k_star)
    oracle_gap = abs(state.gain - iterate_gain(0.05, 2.0 / 4, 10.0, 200))

    # K* depends on (q, r) only through their ratio
    worst_inv = 0.0
    for _ in range(20):
        q = float(10.0 ** rng.uniform(-3, 2))
        r = float(10.0 ** rng.uniform(-3, 2))
        c = float(10.0 ** rng.uniform(-3, 3))
        b = int(rng.integers(1, 100))
        worst_inv = max(
            worst_inv,
            abs(
                steady_state_gain(KalmanConfig(q=q, r=r, p0=1.0), b)
                - steady_state_gain(KalmanConfig(q=c * q, r=c * r, p0=1.0), b)
            ),
        )

    ok = worst_trace <= 1e-12 and gap < 1e-8 and oracle_gap <= 1e-12 and worst_inv <= 1e-10
    _verdict(
        capsys,
        "A3 kalman recursion",
        ok,
        f"10-step trace err {worst_trace:.1e}, |gain200 - K*| {gap:.1e}, "
        f"oracle gain err {oracle_gap:.1e}, scale invariance {worst_inv:.1e}",
    )


# --------------------------------------------------------------------------
# A4: analytic gradients through the full network + normalization vs
#     central finite differences


def test_a4_gradients_match_finite_differences(capsys):
    miner = PairMinerConfig()
    menu = ("contrastive", "triplet", "no-xbm", "xbm", "xbm-star")
    hidden_options = ((8,), (16,), (32,), (8, 8), (32, 16))
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for i in range(20):
        rng = np.random.default_rng(900 + i)
        loss_kind = menu[i % len(menu)]
        n = int(rng.integers(4, 17))
        d = int(rng.integers(2, 9))
        in_dim = int(rng.integers(2, 9))
        hidden = hidden_options[int(rng.integers(len(hidden_options)))]
        emb = MLPEmbedder((in_dim, *hidden, d), seed=rng)
        x = rng.standard_normal((n, in_dim))
        labels = rng.integers(0, 3, size=n)
        ref = rng.standard_normal((int(rng.integers(4, 13)), d))
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        bank = MemoryBank(capacity=len(ref), dim=d)
        bank.enqueue(EmbeddingBatch(vectors=ref, labels=rng.integers(0, 3, size=len(ref))))

        def loss_out(z):
            batch = EmbeddingBatch(vectors=z, labels=labels)
            if loss_kind == "contrastive":
                return contrastive_loss(batch, batch, miner)
            if loss_kind == "triplet":
                return triplet_loss(batch, batch, margin=0.4)
            return xbm_loss(batch, bank, miner, loss_kind)

        z, cache = emb.forward(x)
        out = loss_out(z)
        analytic = emb.layers(emb.backward(cache, out.grad))
        numeric = central_diff_param_grads(emb, lambda e: loss_out(e.forward(x)[0]).value)
        err = relative_grad_error(analytic, numeric)
        assert any(np.abs(gw).max() > 0 for gw, _ in analytic), f"degenerate instance {i}"
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and checked >= 20 and elapsed < 30.0
    _verdict(
        capsys,
        "A4 loss gradients",
        ok,
        f"{checked} instances over {menu}, worst rel err {worst:.1e}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# A5: vectorized mining / losses / recall agree with plain-loop references


def _unit_batch(rng, n, d, n_classes=3) -> EmbeddingBatch:
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return EmbeddingBatch(vectors=v, labels=rng.integers(0, n_classes, size=n))


def test_a5_oracle_parity(capsys):
    miner = PairMinerConfig()
    pair_bad = recall_bad = 0
    # Different summation orders (pairwise numpy vs fsum) legitimately differ
    # in the last ulp, so the triplet *value* check carries a few-ulp
    # allowance; the pair/recall comparisons are exact.
    worst_triplet = 0.0
    for seed in range(50):
        rng = np.random.default_rng(4200 + seed)
        n_b, n_extra, d = (
            int(rng.integers(2, 9)),
            int(rng.integers(0, 7)),
            int(rng.integers(2, 6)),
        )
        batch = _unit_batch(rng, n_b, d)
        if n_extra:
            extra = _unit_batch(rng, n_extra, d)
            ref = EmbeddingBatch(
                vectors=np.concatenate([extra.vectors, batch.vectors]),
                labels=np.concatenate([extra.labels, batch.labels]),
            )
        else:
            ref = batch
        offset = ref.n - batch.n

        pairs = mine_pairs(batch, ref, miner)
        pos_o, neg_o = brute_force_pairs(
            batch.vectors.tolist(), batch.labels.tolist(),
            ref.vectors.tolist(), ref.labels.tolist(),
            miner.pos_margin, miner.neg_margin, offset,
        )
        if (sorted(map(tuple, pairs.positives)) != sorted(pos_o)
                or sorted(map(tuple, pairs.negatives)) != sorted(neg_o)):
            pair_bad += 1

        got = triplet_loss(batch, ref, margin=0.4).value
        want = brute_force_triplet(
            batch.vectors.tolist(), batch.labels.tolist(),
            ref.vectors.tolist(), ref.labels.tolist(), 0.4, offset,
        )
        worst_triplet = max(worst_triplet, _rel(got, want))

        gallery = _unit_batch(rng, int(rng.integers(5, 12)), d, n_classes=4)
        if seed % 2:
            ks = tuple(sorted({1, 2, min(3, gallery.n - 2)}))
            got_r = recall_at_k(gallery, gallery, ks)
            want_r = naive_recall(
                gallery.vectors.tolist(), gallery.labels.tolist(),
                gallery.vectors.tolist(), gallery.labels.tolist(),
                ks, exclude_self=True,
            )
        else:
            queries = _unit_batch(rng, int(rng.integers(2, 6)), d, n_classes=4)
            ks = tuple(sorted({1, min(3, gallery.n - 1)}))
            got_r = recall_at_k(queries, gallery, ks)
            want_r = naive_recall(
                queries.vectors.tolist(), queries.labels.tolist(),
                gallery.vectors.tolist(), gallery.labels.tolist(),
                ks, exclude_self=False,
            )
        if got_r != want_r:
            recall_bad += 1

    ok = pair_bad == 0 and recall_bad == 0 and worst_triplet <= 5e-15
    _verdict(
        capsys,
        "A5 oracle parity",
        ok,
        f"50 instances each: pair-set mismatches {pair_bad}, recall mismatches {recall_bad}, "
        f"triplet value worst rel {worst_triplet:.1e} (ulp-level summation order)",
    )


# --------------------------------------------------------------------------
# A6-A8: the desk-scale ordering benchmark (shared 27-run matrix)


def _desk_worker_init():
    warnings.simplefilter("error", RuntimeWarning)  # as pyproject's filterwarnings in-process


def _desk_run(dataset, cell):
    """One run of the desk matrix, timed in its worker; returns only what A6-A8 read."""
    batch_size, kind, seed = cell
    cfg = TrainConfig(
        batch_size=batch_size,
        seed=seed,
        main_optimizer=OptimizerConfig(kind="adamw", learning_rate=DESK_LR),
    )
    t0 = time.perf_counter()
    result = run_training(cfg, dataset, MethodVariant(kind))
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(best_r1=result.best_r1, epoch_records=result.epoch_records), elapsed


@pytest.fixture(scope="module")
def desk_matrix():
    # Each run is a pure function of its config, so the 27 runs go to one
    # spawned worker per CPU, each with one BLAS thread; the longest (B8) first.
    dataset = generate_synthetic(SyntheticConfig(cluster_std=DESK_STD, seed=0))
    cells = {
        8: ("xbm", "xbn", "axbn"),
        16: ("no-xbm", "xbm", "xbn", "axbn"),
        32: ("xbm", "xbn"),
    }
    runs = [(b, kind, seed) for b, kinds in cells.items() for kind in kinds for seed in DESK_SEEDS]
    with pytest.MonkeyPatch.context() as env:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.setenv(var, "1")  # read by each worker when it loads numpy
        with ProcessPoolExecutor(
            max_workers=min(os.cpu_count() or 1, len(runs)),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_desk_worker_init,
        ) as pool:
            done = list(pool.map(partial(_desk_run, dataset), runs))
    results: dict[tuple[int, str], list] = {}
    for (batch_size, kind, _), (result, _) in zip(runs, done):
        results.setdefault((batch_size, kind), []).append(result)
    return results, max(elapsed for _, elapsed in done)


def _mean_std(results, batch_size, kind):
    vals = np.array([r.best_r1 for r in results[(batch_size, kind)]])
    return float(vals.mean()), float(vals.std())


@pytest.mark.slow
def test_a6_desk_scale_ordering(desk_matrix, capsys):
    results, slowest = desk_matrix
    mean = {}
    std = {}
    for kind in ("no-xbm", "xbm", "xbn", "axbn"):
        mean[kind], std[kind] = _mean_std(results, 16, kind)
    axbn_vs_xbn = mean["axbn"] - mean["xbn"]
    ok = (
        mean["xbn"] > mean["xbm"]
        and mean["xbn"] > mean["no-xbm"]
        and axbn_vs_xbn >= -POINT
        and std["xbm"] >= std["xbn"]
        and slowest < 600.0
    )
    _verdict(
        capsys,
        "A6 desk-scale ordering",
        ok,
        f"R@1 no-xbm {mean['no-xbm']:.4f}, xbm {mean['xbm']:.4f}(±{std['xbm']:.4f}), "
        f"xbn {mean['xbn']:.4f}(±{std['xbn']:.4f}), axbn {mean['axbn']:.4f} "
        f"(vs xbn {axbn_vs_xbn:+.4f}), slowest run {slowest:.1f}s",
    )


@pytest.mark.slow
def test_a7_drift_advantage(desk_matrix, capsys):
    results, _ = desk_matrix
    curves = {}
    for kind in ("xbm", "xbn"):
        per_seed = [
            [e.mean_drift for e in r.epoch_records if e.stage == "main"]
            for r in results[(16, kind)]
        ]
        curves[kind] = np.array(per_seed).mean(axis=0)  # seed-averaged epoch curve
    wins = int((curves["xbn"] < curves["xbm"]).sum())
    total = len(curves["xbn"])
    ok = wins / total >= 0.8
    _verdict(
        capsys,
        "A7 drift advantage",
        ok,
        f"xbn drift below xbm on {wins}/{total} post-warmup epochs (need >= 80%)",
    )


@pytest.mark.slow
def test_a8_batch_size_sweep(desk_matrix, capsys):
    results, _ = desk_matrix
    gaps = {}
    for batch_size in (8, 16, 32):
        gaps[batch_size] = (
            _mean_std(results, batch_size, "xbn")[0]
            - _mean_std(results, batch_size, "xbm")[0]
        )
    axbn_vs_xbn_small = (
        _mean_std(results, 8, "axbn")[0] - _mean_std(results, 8, "xbn")[0]
    )
    ok = all(g >= 0.0 for g in gaps.values()) and axbn_vs_xbn_small >= -0.5 * POINT
    _verdict(
        capsys,
        "A8 batch-size sweep",
        ok,
        "xbn-xbm gap " + ", ".join(f"B{b} {gaps[b]:+.4f}" for b in (8, 16, 32))
        + f"; axbn vs xbn at B8 {axbn_vs_xbn_small:+.4f} (grace -0.005)",
    )


# --------------------------------------------------------------------------
# A9: serialization round trips


def test_a9_round_trips(tmp_path, capsys):
    small = SyntheticConfig(
        train_classes=6, val_classes=3, samples_per_class=5, input_dim=7, seed=21
    )
    ds64 = generate_synthetic(small)
    ds32 = FeatureDataset(
        features=ds64.features.astype(np.float32), labels=ds64.labels, splits=ds64.splits
    )
    bit_ok = True
    for tag, ds in (("f8", ds64), ("f4", ds32)):
        path = tmp_path / f"roundtrip_{tag}.xbnf"
        save_features(ds, path)
        back = load_features(path)
        bit_ok = bit_ok and (
            back.features.dtype == ds.features.dtype
            and back.features.tobytes() == ds.features.tobytes()
            and np.array_equal(back.labels, ds.labels)
            and np.array_equal(back.splits, ds.splits)
        )

    data = generate_synthetic(
        SyntheticConfig(train_classes=8, val_classes=4, samples_per_class=6, input_dim=8, seed=5)
    )
    cfg = TrainConfig(
        batch_size=8, samples_per_class=2, epochs=3, warmup_epochs=1,
        hidden_dims=(16,), embed_dim=8, recall_ks=(1, 5), seed=2,
    )
    result = run_training(cfg, data, MethodVariant("xbn"))
    ckpt = tmp_path / "best.ckpt"
    save_checkpoint(result.embedder, ckpt)
    restored = TrainingRun(cfg, data, MethodVariant("xbn")).evaluate(load_checkpoint(ckpt))
    ckpt_ok = restored == result.best_recall

    _verdict(
        capsys,
        "A9 round trips",
        bit_ok and ckpt_ok,
        f"feature files bit-exact (f8+f4): {bit_ok}; checkpoint R@1 "
        f"{restored.get(1)!r} == trained {result.best_recall.get(1)!r}: {ckpt_ok}",
    )
