import dataclasses
import math
import re

import numpy as np
import pytest

from crossbatch import (
    TAG_TRAIN,
    EmbeddingBatch,
    FeatureDataset,
    InvalidConfig,
    MethodVariant,
    NonFiniteLoss,
    SyntheticConfig,
    TrainConfig,
    Optimizer,
    TrainingRun,
    compute_moments,
    generate_synthetic,
    sample_pk_batches,
)
from crossbatch.losses import LossOutput


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(
        SyntheticConfig(
            train_classes=8, val_classes=4, samples_per_class=6, input_dim=8, seed=5
        )
    )


def small_config(**kw):
    base = dict(
        batch_size=8,
        samples_per_class=2,
        memory_fraction=0.5,
        epochs=3,
        warmup_epochs=1,
        hidden_dims=(16,),
        embed_dim=8,
        recall_ks=(1, 5),
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def record_gradients(run, monkeypatch) -> list:
    """The gradients run's embedder.backward returns, appended as the run takes them."""
    grads, backward = [], run.embedder.backward

    def spy(*args):
        grads.append(backward(*args))
        return grads[-1]

    monkeypatch.setattr(run.embedder, "backward", spy)
    return grads


class TestMethodVariant:
    def test_parse(self):
        v = MethodVariant.parse("ema:0.25")
        assert v.kind == "ema" and v.momentum == 0.25
        assert str(v) == "ema0.25"
        assert MethodVariant.parse("xbn") == MethodVariant("xbn")
        assert str(MethodVariant("xbm-star")) == "xbm-star"
        for variant in (v, MethodVariant("axbn"), MethodVariant("ema", momentum=0.1 + 0.2)):
            assert MethodVariant.parse(variant.spec) == variant

    def test_distinct_momenta_get_distinct_directories(self):
        names = {
            spec: str(MethodVariant.parse(spec))
            for spec in ("ema:0", "ema:1", "ema:0.3", "ema:0.9", "ema:0.1234567",
                         "ema:0.1234568", "ema:0.1", "ema:0.1000001", "ema:1e-20")
        }
        assert len(set(names.values())) == len(names)
        # the short spellings of earlier runs are kept
        assert [names[s] for s in ("ema:0", "ema:1", "ema:0.3", "ema:0.9")] == [
            "ema0", "ema1", "ema0.3", "ema0.9"
        ]

    def test_negative_zero_momentum_is_zero(self):
        variant = MethodVariant.parse("ema:-0.0")
        assert variant == MethodVariant.parse("ema:0")
        assert (variant.spec, str(variant)) == ("ema:0.0", "ema0")
        assert math.copysign(1.0, variant.momentum) == 1.0

    def test_invalid(self):
        with pytest.raises(InvalidConfig):
            MethodVariant("banana")
        with pytest.raises(InvalidConfig):
            MethodVariant("ema", momentum=1.5)
        with pytest.raises(InvalidConfig, match="only to the ema variant"):
            MethodVariant("xbn", momentum=0.5)
        with pytest.raises(InvalidConfig, match="requires a momentum"):
            MethodVariant.parse("ema")

    def test_flags(self):
        assert not MethodVariant("no-xbm").uses_memory
        assert MethodVariant("xbm").uses_memory
        assert MethodVariant("xbm").stats_filter is None
        assert MethodVariant("xbm-star").reference == "xbm-star"
        assert MethodVariant("xbn").stats_filter == "ema"  # at momentum 0
        assert MethodVariant("axbn").stats_filter == "kalman"
        assert MethodVariant("axbn").reference == "xbm"


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 1},
            {"samples_per_class": 0},
            {"batch_size": 10, "samples_per_class": 4},
            {"epochs": -1},
            {"warmup_epochs": -1},
            {"memory_fraction": -0.1},
            {"embed_dim": 0},
            {"hidden_dims": (8, 0)},
            {"lr": np.inf},
            {"lr": np.nan},
            {"warmup_lr": np.inf},
            {"weight_decay": np.inf},
            {"weight_decay": np.nan},
            {"q": 0.0},
            {"pos_margin": 0.9},
            {"memory_fraction": 1.5},
            {"memory_fraction": np.nan},
            {"recall_ks": (5, 10)},
            {"seed": -1},
            {"lr": 0.0},
            {"weight_decay": -0.1},
            {"schedule_gamma": 1.5},
            {"schedule_gamma": np.nan},
            {"schedule_every": -1},
            {"pos_margin": -0.1},
            {"pos_margin": 0.5, "neg_margin": 0.5},
            {"pos_margin": 0.8, "neg_margin": 0.2},
            {"neg_margin": 2.5},
            {"q": np.inf},
            {"q": np.nan},
            {"r": -0.5},
            {"r": np.inf},
            {"r": np.nan},
            {"p0": 0.0},
            {"p0": -1.0},
            {"p0": np.inf},
            {"p0": np.nan},
        ],
    )
    def test_invalid(self, kwargs):
        # the message names each setting it rejects as its config key (and flag) spells it
        with pytest.raises(InvalidConfig) as caught:
            TrainConfig(**kwargs)
        for key in kwargs:
            assert re.search(rf"\b{key}\b", str(caught.value)), (key, str(caught.value))

    @pytest.mark.parametrize("name", ["kalman", "main_optimizer", "miner", "memory_capacity"])
    def test_removed_arguments_and_parts(self, name):
        # every setting is a flat field; memory_fraction alone sizes the bank
        with pytest.raises(TypeError, match=name):
            TrainConfig(**{name: None})
        assert not hasattr(TrainConfig(), name)

    def test_replace_into_invalid_value(self):
        with pytest.raises(InvalidConfig, match=r"^embed_dim must be >= 1, got 0$"):
            dataclasses.replace(TrainConfig(), embed_dim=0)
        with pytest.raises(InvalidConfig, match=r"^memory_fraction must be in \[0, 1\], got 2.0$"):
            dataclasses.replace(TrainConfig(), memory_fraction=2.0)
        with pytest.raises(InvalidConfig, match=r"^lr must be finite and > 0, got inf$"):
            dataclasses.replace(TrainConfig(), lr=np.inf)
        with pytest.raises(InvalidConfig, match=r"^r must be finite and >= 0, got -0.5$"):
            dataclasses.replace(TrainConfig(), r=-0.5)

    def test_lr_at_steps_the_main_stage_schedule(self):
        cfg = TrainConfig(lr=1e-4, schedule_gamma=0.33, schedule_every=15)
        assert cfg.lr_at(0) == 1e-4
        assert cfg.lr_at(14) == 1e-4
        assert cfg.lr_at(15) == pytest.approx(0.33e-4)
        assert cfg.lr_at(30) == pytest.approx(0.33**2 * 1e-4)
        assert TrainConfig(lr=1e-4, schedule_every=0).lr_at(30) == 1e-4

    @pytest.mark.parametrize(
        "recall_ks,needle",
        [
            ((), "k values must be >= 1 and ascending"),
            ((1, 1), "not strictly ascending"),
            ((1, 10.0), "not all integers"),
            ((5, 10), "recall_ks must start with 1"),
            ((2,), "recall_ks must start with 1"),
        ],
    )
    def test_invalid_recall_ks(self, recall_ks, needle):
        with pytest.raises(InvalidConfig, match=needle):
            TrainConfig(recall_ks=recall_ks)

    def test_resolve_capacity(self):
        assert TrainConfig(memory_fraction=0.5).resolve_capacity(101) == 50
        assert TrainConfig(memory_fraction=1.0).resolve_capacity(7) == 7
        # a capacity of c rows out of n is the fraction c/n
        assert TrainConfig(memory_fraction=7 / 100).resolve_capacity(100) == 7


class TestSamplePkBatches:
    def test_shapes_and_grouping(self):
        labels = np.repeat(np.arange(6), 5)  # 30 rows, 6 classes
        batches = sample_pk_batches(labels, 10, 2, seed=0)
        assert len(batches) == 3  # ceil(30 / 10)
        for b in batches:
            assert b.shape == (10,)
            groups = labels[b].reshape(5, 2)
            assert all(len(set(g)) == 1 for g in groups)  # K rows share a class
            assert len({g[0] for g in groups}) == 5  # distinct classes

    def test_small_class_resampled_with_replacement(self):
        labels = np.array([0, 0, 0, 0, 1])  # class 1 has one instance, K = 2
        batches = sample_pk_batches(labels, 4, 2, seed=1)
        assert len(batches) == 2
        for b in batches:
            ones = b[labels[b] == 1]
            assert list(ones) == [4, 4]

    def test_indivisible_batch_rejected(self):
        with pytest.raises(InvalidConfig):
            sample_pk_batches(np.arange(10), 5, 2, seed=0)

    def test_too_few_classes(self):
        with pytest.raises(InvalidConfig):
            sample_pk_batches(np.repeat([0, 1], 10), 12, 4, seed=0)  # needs 3

    @pytest.mark.parametrize(
        "batch_size,samples_per_class", [(4, 0), (0, 2), (0, 0), (-4, 2), (4, -2), (-4, -2)]
    )
    def test_sizes_below_one_rejected(self, batch_size, samples_per_class):
        # unchecked, 0 divides by zero and a negative batch size gives no batches
        with pytest.raises(InvalidConfig, match="must be >= 1"):
            sample_pk_batches(np.repeat(np.arange(6), 5), batch_size, samples_per_class, seed=0)

    def test_deterministic_per_seed(self):
        labels = np.repeat(np.arange(6), 5)
        a = sample_pk_batches(labels, 10, 2, seed=42)
        b = sample_pk_batches(labels, 10, 2, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = sample_pk_batches(labels, 10, 2, seed=43)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))


class TestFeatureDrift:
    """The per-step drift probe: how far the probe rows' embeddings moved between the
    forward passes of two successive steps, i.e. under the earlier step's update."""

    def test_identical_embedders(self, dataset, monkeypatch):
        import crossbatch.training as training_module

        def flat(batch, bank, cfg, kind):  # zero gradient: AdamW leaves every weight as is
            return LossOutput(value=0.0, grad=np.zeros_like(batch.vectors))

        monkeypatch.setattr(training_module, "xbm_loss", flat)
        run = TrainingRun(small_config(warmup_epochs=0), dataset, MethodVariant("xbm"))
        records = [run.train_step(idx) for idx in run.epoch_batches()]
        assert (records[0].drift_mean, records[0].drift_max) == (None, None)
        for record in records[1:]:
            assert (record.drift_mean, record.drift_max) == (0.0, 0.0)

    def test_bounded_by_two_on_unit_sphere(self, dataset):
        cfg = small_config(warmup_epochs=0, lr=100.0)
        run = TrainingRun(cfg, dataset, MethodVariant("xbm"))
        records = [run.train_step(idx) for idx in run.epoch_batches()]
        assert (records[0].drift_mean, records[0].drift_max) == (None, None)
        for record in records[1:]:
            assert 0.0 <= record.drift_mean <= record.drift_max <= 2.0 + 1e-12
        assert max(r.drift_max for r in records[1:]) > 0.0

    def test_matches_manual_computation(self, dataset):
        run = TrainingRun(small_config(warmup_epochs=0), dataset, MethodVariant("axbn"))
        batches = run.epoch_batches()
        run.train_step(batches[0])
        before = run.embedder.embed(run.probe_inputs)
        run.train_step(batches[1])
        after = run.embedder.embed(run.probe_inputs)
        record = run.train_step(batches[2])  # records the move made by batches[1]'s update
        dists = [
            math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(za, zb)))
            for za, zb in zip(after, before)
        ]
        assert max(dists) > 0.0
        assert record.drift_mean == pytest.approx(math.fsum(dists) / len(dists), rel=1e-12)
        assert record.drift_max == pytest.approx(max(dists), rel=1e-12)

    def test_equals_linalg_norm_byte_for_byte(self, dataset):
        run = TrainingRun(small_config(warmup_epochs=0), dataset, MethodVariant("axbn"))
        before = run.embedder.embed(run.probe_inputs)
        norms = None  # step t's move, recorded by step t + 1
        for idx in run.epoch_batches()[:5]:
            record = run.train_step(idx)
            if norms is None:
                assert (record.drift_mean, record.drift_max) == (None, None)
            else:
                assert record.drift_mean.hex() == float(norms.mean()).hex()
                assert record.drift_max.hex() == float(norms.max()).hex()
            after = run.embedder.embed(run.probe_inputs)
            norms = np.linalg.norm(after - before, axis=1)
            before = after

    @pytest.mark.parametrize("failing_step", [0, 2])
    def test_failed_step_leaves_the_probe_state(self, dataset, monkeypatch, failing_step):
        import crossbatch.training as training_module

        def poisoned(batch, bank, cfg, kind):
            return LossOutput(value=float("nan"), grad=np.zeros_like(batch.vectors))

        run = TrainingRun(small_config(warmup_epochs=0), dataset, MethodVariant("axbn"))
        batches = run.epoch_batches()
        for idx in batches[:failing_step]:
            before = run.embedder.embed(run.probe_inputs)  # the last successful forward's
            run.train_step(idx)
        with monkeypatch.context() as patch:
            patch.setattr(training_module, "xbm_loss", poisoned)
            with pytest.raises(NonFiniteLoss):
                run.train_step(batches[failing_step])
        now = run.embedder.embed(run.probe_inputs)
        record = run.train_step(batches[failing_step + 1])
        if failing_step == 0:  # no step has succeeded yet: nothing to compare against
            assert (record.drift_mean, record.drift_max) == (None, None)
            return
        # the failed step's forward saw the parameters this step sees, so drift
        # measured from it would be 0; the move since the last successful one is not
        norms = np.linalg.norm(now - before, axis=1)
        assert norms.max() > 0.0
        assert record.drift_mean.hex() == float(norms.mean()).hex()
        assert record.drift_max.hex() == float(norms.max()).hex()

    @pytest.mark.parametrize("variant", ["xbm", "axbn"])
    def test_probe_never_reaches_training(self, tmp_path, monkeypatch, variant):
        from crossbatch.cli import main

        data = str(tmp_path / "d.xbnf")
        assert main(["gen-data", "--out", data, "--train-classes", "6", "--val-classes", "3",
                     "--samples-per-class", "6", "--input-dim", "8", "--seed", "3"]) == 0
        step = TrainingRun.train_step
        params, drifts = [], []

        def spy(run, idx):
            record = step(run, idx)
            params[-1].append(run.embedder.params.tobytes())
            drifts[-1].append(record.drift_mean)
            return record

        monkeypatch.setattr(TrainingRun, "train_step", spy)
        for flags in ((), ("--no-drift",)):
            params.append([])
            drifts.append([])
            assert main(["train", "--dataset", data, "--out", str(tmp_path / str(len(params))),
                         "--variant", variant, "--batch-size", "6", "--samples-per-class", "2",
                         "--epochs", "2", "--warmup-epochs", "1", "--hidden-dims", "12",
                         "--embed-dim", "6", "--recall-ks", "1,5", *flags]) == 0
        assert len(params[0]) == 18  # 1 warmup + 2 main epochs of ceil(36 / 6) = 6 steps
        assert None not in drifts[0][1:] and drifts[1] == [None] * 18
        assert params[0] == params[1]
        for name in ("checkpoint.xbnc", "summary.csv"):
            on, off = (tmp_path / str(i) / variant / "0" / name for i in (1, 2))
            assert on.read_bytes() == off.read_bytes(), name


class TestTrainingRunSetup:
    def test_capacity_below_batch_rejected_for_memory_variants(self, dataset):
        cfg = small_config(memory_fraction=4 / 48)  # of the fixture's 48 train rows
        with pytest.raises(InvalidConfig):
            TrainingRun(cfg, dataset, MethodVariant("xbm"))
        # fine without memory, and zero capacity is a legal degenerate bank
        TrainingRun(cfg, dataset, MethodVariant("no-xbm"))
        TrainingRun(
            small_config(memory_fraction=0.0),
            dataset,
            MethodVariant("xbm"),
        )

    def test_no_train_rows(self):
        ds = FeatureDataset(
            features=np.zeros((4, 2)),
            labels=np.array([0, 0, 1, 1]),
            splits=np.ones(4, dtype=np.uint8),
        )
        with pytest.raises(InvalidConfig):
            TrainingRun(small_config(), ds, MethodVariant("xbm"))

    def test_trains_on_the_train_rows_in_file_order(self, dataset):
        # validation rows interleaved with the train rows never reach training
        order = np.random.default_rng(3).permutation(dataset.n)
        ds = FeatureDataset(dataset.features[order], dataset.labels[order], dataset.splits[order])
        train = ds.splits == TAG_TRAIN
        run = TrainingRun(small_config(), ds, MethodVariant("xbm"))
        np.testing.assert_array_equal(run.train_features, ds.features[train])
        np.testing.assert_array_equal(run.train_labels, ds.labels[train])


class TestTrainingLoop:
    def test_record_counts_and_drift_range(self, dataset):
        result = TrainingRun(small_config(), dataset, MethodVariant("xbn")).run()
        # 1 warmup + 3 main epochs, ceil(48 / 8) = 6 batches each
        assert len(result.epoch_records) == 4
        assert len(result.iterations) == 24
        assert [r.epoch for r in result.epoch_records] == [0, 1, 2, 3]
        assert (result.iterations[0].drift_mean, result.iterations[0].drift_max) == (None, None)
        for r in result.iterations[1:]:
            assert 0.0 <= r.drift_mean <= r.drift_max <= 2.0 + 1e-12
        assert 0 <= result.best_epoch <= 3
        assert set(result.best_recall) == {1, 5}

    def test_run_is_deterministic(self, dataset):
        a = TrainingRun(small_config(), dataset, MethodVariant("axbn")).run()
        b = TrainingRun(small_config(), dataset, MethodVariant("axbn")).run()
        for wa, wb in zip(a.final_embedder.weights, b.final_embedder.weights):
            np.testing.assert_array_equal(wa, wb)
        assert [r.loss for r in a.iterations] == [r.loss for r in b.iterations]
        assert a.best_epoch == b.best_epoch
        assert a.best_recall == b.best_recall

    def test_warmup_is_variant_independent(self, dataset):
        cfg = small_config(epochs=0, warmup_epochs=2)
        runs = {
            kind: TrainingRun(cfg, dataset, MethodVariant(kind)).run()
            for kind in ("no-xbm", "xbm", "xbn")
        }
        base = runs["no-xbm"].final_embedder
        for kind in ("xbm", "xbn"):
            for a, b in zip(base.weights, runs[kind].final_embedder.weights):
                np.testing.assert_array_equal(a, b)

    def test_warmup_trains_only_the_last_layer(self, dataset):
        run = TrainingRun(small_config(hidden_dims=(16, 12)), dataset, MethodVariant("axbn"))
        params = run.embedder.params
        last = params.size - run.embedder.weights[-1].size - run.embedder.biases[-1].size
        initial = params.copy()
        run.run_epoch()
        assert run.stage == "main"
        assert params[:last].tobytes() == initial[:last].tobytes()
        assert (params[last:] != initial[last:]).any()
        after_warmup = params.copy()
        run.train_step(run.epoch_batches()[0])
        changed = run.embedder.layers(params != after_warmup)
        assert all(w.any() and b.any() for w, b in changed)

    def test_warmup_step_is_a_plain_gradient_step_on_the_last_layer(self, dataset, monkeypatch):
        cfg = small_config(hidden_dims=(16, 12), warmup_lr=0.25)
        run = TrainingRun(cfg, dataset, MethodVariant("axbn"))
        grads = record_gradients(run, monkeypatch)
        params = run.embedder.params
        last = params.size - run.embedder.weights[-1].size - run.embedder.biases[-1].size
        before = params.copy()
        record = run.train_step(run.epoch_batches()[0])
        assert record.stage == "warmup" and record.lr == 0.25
        assert params[:last].tobytes() == before[:last].tobytes()
        assert params[last:].tobytes() == (before[last:] - 0.25 * grads[0][last:]).tobytes()
        assert run.optimizer.t == 0  # the main stage's AdamW starts fresh

    def test_first_main_step_is_a_fresh_adamw_step(self, dataset, monkeypatch):
        cfg = small_config(lr=1e-3, weight_decay=0.01)
        run = TrainingRun(cfg, dataset, MethodVariant("xbn"))
        run.run_epoch()  # warmup
        grads = record_gradients(run, monkeypatch)
        expected = run.embedder.clone()
        record = run.train_step(run.epoch_batches()[0])
        fresh = Optimizer(cfg, expected)
        fresh.step(grads[0], cfg.lr_at(0))
        assert record.stage == "main" and record.lr == 1e-3
        assert run.optimizer.t == fresh.t == 1
        assert run.embedder.params.tobytes() == expected.params.tobytes()

    def test_stage_transition_gain_and_lr(self, dataset):
        run = TrainingRun(small_config(epochs=1), dataset, MethodVariant("axbn"))
        rec_w = run.run_epoch()
        assert rec_w.stage == "warmup"
        assert run.stage == "main"  # flipped after the warmup epoch
        rec_m = run.run_epoch()
        assert rec_m.stage == "main"
        warm = [r for r in run.iterations if r.stage == "warmup"]
        main = [r for r in run.iterations if r.stage == "main"]
        assert warm and main
        assert all(r.gain is None for r in warm)
        assert all(r.gain is not None for r in main)
        assert all(r.lr == 1e-3 for r in warm)  # default warmup_lr
        assert all(r.lr == 1e-4 for r in main)  # default main AdamW, epoch 0

    def test_first_main_step_loss_shared_across_variants(self, dataset):
        # nothing is enqueued during warmup, so the first main step sees an
        # empty bank: every memory variant collapses to the plain loss (and
        # the star variant to exactly twice it)
        losses = {}
        variants = [
            MethodVariant("no-xbm"),
            MethodVariant("xbm"),
            MethodVariant("xbm-star"),
            MethodVariant("xbn"),
            MethodVariant("axbn"),
            MethodVariant("ema", momentum=0.5),
        ]
        for variant in variants:
            run = TrainingRun(small_config(), dataset, variant)
            run.run_epoch()  # warmup
            rec = run.train_step(run.epoch_batches()[0])
            losses[str(variant)] = rec.loss
        base = losses["no-xbm"]
        for name in ("xbm", "xbn", "axbn", "ema0.5"):
            assert losses[name] == base
        assert losses["xbm-star"] == 2.0 * base

    def test_memory_entries_never_rewritten_for_plain_xbm(self, dataset):
        cfg = small_config(warmup_epochs=0, epochs=1)
        run = TrainingRun(cfg, dataset, MethodVariant("xbm"))
        recorded = []
        for idx in run.epoch_batches():
            z = run.embedder.embed(run.train_features[idx])  # params pre-step
            run.train_step(idx)
            recorded.append(z)
            expect = np.concatenate(recorded)[-run.bank.capacity :]
            assert len(run.bank) == len(expect)
            np.testing.assert_array_equal(run.bank.vectors, expect)

    def test_bank_empty_through_warmup_then_bounded(self, dataset):
        cfg = small_config(memory_fraction=16 / 48, epochs=1)
        run = TrainingRun(cfg, dataset, MethodVariant("xbm"))
        run.run_epoch()
        assert len(run.bank) == 0  # warmup never touches the bank
        for idx in run.epoch_batches():
            run.train_step(idx)
            assert len(run.bank) <= 16
        assert len(run.bank) == 16

    def test_adapt_matches_batch_moments_during_xbn_run(self, dataset):
        cfg = small_config(warmup_epochs=0, epochs=1, memory_fraction=40 / 48)
        run = TrainingRun(cfg, dataset, MethodVariant("xbn"))
        batches = run.epoch_batches()
        for idx in batches[:3]:
            run.train_step(idx)
        old_len = len(run.bank)  # 24 entries, no eviction at capacity 40
        z = run.embedder.embed(run.train_features[batches[3]])
        target = compute_moments(
            EmbeddingBatch(vectors=z, labels=run.train_labels[batches[3]])
        )
        run.train_step(batches[3])
        adapted = EmbeddingBatch(
            vectors=run.bank.vectors[:old_len], labels=run.bank.labels[:old_len]
        )
        got = compute_moments(adapted)
        np.testing.assert_allclose(got.mean, target.mean, atol=1e-9)
        np.testing.assert_allclose(got.std, target.std, atol=1e-9)

    def test_adaptive_reductions_match_xbn_stepwise(self, dataset):
        def losses_for(variant, **cfg_kw):
            cfg = small_config(warmup_epochs=0, epochs=1, **cfg_kw)
            run = TrainingRun(cfg, dataset, variant)
            return [run.train_step(idx).loss for idx in run.epoch_batches()]

        ref = losses_for(MethodVariant("xbn"))
        exact = losses_for(MethodVariant("axbn"), r=0.0)
        frozen = losses_for(MethodVariant("ema", momentum=0.0))
        assert exact == ref
        assert frozen == ref

    def test_failed_step_rolls_back(self, dataset, monkeypatch):
        import crossbatch.training as training_module

        run = TrainingRun(
            small_config(warmup_epochs=0), dataset, MethodVariant("axbn")
        )
        batches = run.epoch_batches()

        def poisoned(batch, bank, cfg, kind):
            bank.reference_set(batch)  # writes the batch after the stored rows
            return LossOutput(value=float("nan"), grad=np.zeros_like(batch.vectors))

        # 24 train rows fill the bank after 3 steps; 2 more wrap it past its capacity
        for n_steps in (3, 2):
            for idx in batches[:n_steps]:
                run.train_step(idx)
            assert len(run.bank) == run.bank.capacity == 24
            bank_vecs = run.bank.vectors.tobytes()
            bank_labels = run.bank.labels.tobytes()
            kalman_before = run.kalman_state
            step_before = run.global_step
            weights_before = [w.copy() for w in run.embedder.weights]
            n_records = len(run.iterations)

            with monkeypatch.context() as patch:
                patch.setattr(training_module, "xbm_loss", poisoned)
                with pytest.raises(NonFiniteLoss) as err:
                    run.train_step(batches[n_steps])
            assert err.value.step == step_before

            assert len(run.bank) == 24
            assert run.bank.vectors.tobytes() == bank_vecs
            assert run.bank.labels.tobytes() == bank_labels
            assert run.kalman_state is kalman_before
            assert run.global_step == step_before
            assert len(run.iterations) == n_records
            for w, w0 in zip(run.embedder.weights, weights_before):
                np.testing.assert_array_equal(w, w0)

    def test_drift_probe_disabled(self, dataset):
        cfg = small_config(probe_drift=False, warmup_epochs=0, epochs=1)
        result = TrainingRun(cfg, dataset, MethodVariant("xbn")).run()
        assert all(r.drift_mean is None for r in result.iterations)
        assert result.epoch_records[0].mean_drift is None

    def test_no_validation_rows(self, dataset):
        ds = FeatureDataset(
            features=dataset.features,
            labels=dataset.labels,
            splits=np.zeros(dataset.n, dtype=np.uint8),
        )
        result = TrainingRun(small_config(epochs=1), ds, MethodVariant("xbm")).run()
        assert result.best_epoch == -1
        assert result.best_recall == {}
        for a, b in zip(result.embedder.weights, result.final_embedder.weights):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(InvalidConfig):
            TrainingRun(small_config(), ds, MethodVariant("xbm")).evaluate()

    def test_best_epoch_tracks_strict_improvement(self, dataset):
        result = TrainingRun(small_config(), dataset, MethodVariant("xbn")).run()
        r1_by_epoch = [rec.recall[1] for rec in result.epoch_records]
        assert result.best_recall[1] == max(r1_by_epoch)
        # earliest epoch achieving the maximum wins (later ties don't replace)
        assert result.best_epoch == r1_by_epoch.index(max(r1_by_epoch))
