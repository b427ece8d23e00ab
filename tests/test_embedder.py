import struct
import tracemalloc

import numpy as np
import pytest

from crossbatch import (
    EmbeddingBatch,
    FormatError,
    InvalidConfig,
    MLPEmbedder,
    NonFiniteInput,
    Optimizer,
    OptimizerConfig,
    PairMinerConfig,
    ShapeMismatch,
    load_checkpoint,
    save_checkpoint,
    contrastive_loss,
)
from oracles import (
    PerArrayOptimizer,
    central_diff_param_grads,
    per_layer_backward,
    relative_grad_error,
)


def tiny_net(dims=(3, 8, 4), seed=0):
    return MLPEmbedder(dims, seed=seed)


class TestForward:
    def test_rows_unit_norm(self):
        net = tiny_net()
        x = np.random.default_rng(1).normal(size=(10, 3))
        z = net.embed(x)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), np.ones(10), atol=1e-6)

    def test_zero_depth_is_plain_normalization(self):
        net = MLPEmbedder((2,))
        z = net.embed(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(z, [[0.6, 0.8]], atol=1e-9)

    def test_deterministic(self):
        net = tiny_net()
        x = np.random.default_rng(2).normal(size=(5, 3))
        a = net.embed(x)
        b = net.embed(x)
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_init(self):
        a, b = tiny_net(seed=7), tiny_net(seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_nonfinite_input(self):
        with pytest.raises(NonFiniteInput):
            tiny_net().embed(np.array([[1.0, np.nan, 0.0]]))

    def test_wrong_width(self):
        with pytest.raises(ShapeMismatch):
            tiny_net().embed(np.zeros((2, 5)))
        with pytest.raises(ShapeMismatch):
            tiny_net().embed(np.zeros(3))

    def test_bad_dims(self):
        with pytest.raises(InvalidConfig):
            MLPEmbedder(())
        with pytest.raises(InvalidConfig):
            MLPEmbedder((4, 0, 2))


class NegatedProduct(np.ndarray):
    """Weights whose product with a layer input comes back negated.

    With zero weights that plants a pre-activation of exactly -0.0, which a
    BLAS that writes C = A B instead of adding into a zeroed C can return for
    products that underflow; OpenBLAS, which adds into a zeroed C, never does.
    """

    def __rmatmul__(self, other):
        return -(np.asarray(other) @ np.asarray(self))


class TestEmbed:
    """embed() is forward()'s embeddings without the backward cache."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_equals_forward_bit_for_bit(self, depth):
        rng = np.random.default_rng(depth)
        for trial in range(10):
            dims = rng.integers(1, 24, size=depth + 1)
            net = MLPEmbedder(dims, seed=trial)
            x = rng.normal(size=(int(rng.integers(0, 30)), dims[0])) * 10.0 ** (trial % 3)
            z, _ = net.forward(x)
            assert net.embed(x).tobytes() == z.tobytes()

    def test_signed_zero_preactivations(self):
        # Both layers' products are planted at -0.0 (rebinding the weights
        # detaches them from params, which this test does not use); the bias
        # keeps -0.0 in column 0 and turns it into +0.0 in column 1.
        net = MLPEmbedder((3, 2, 2), seed=4)
        for idx in range(2):
            net.weights[idx] = np.zeros_like(net.weights[idx]).view(NegatedProduct)
            net.biases[idx][...] = [-0.0, 0.0]
        x = np.random.default_rng(4).normal(size=(5, 3))
        pre = x @ net.weights[0] + net.biases[0]
        np.testing.assert_array_equal(np.signbit(pre), [[True, False]] * 5)
        z, cache = net.forward(x)
        hidden = cache["layer_inputs"][1]
        assert hidden.tobytes() == np.where(pre > 0, pre, 0.0).tobytes()
        assert not np.signbit(hidden).any()
        e = net.embed(x)
        assert e.tobytes() == z.tobytes()
        np.testing.assert_array_equal(np.signbit(e), [[True, False]] * 5)

    def test_zero_depth_leaves_the_input_alone(self):
        net = MLPEmbedder((3,))
        x = np.array([[3.0, 0.0, 4.0], [-0.0, 0.0, -0.0]])
        before = x.tobytes()
        z = net.embed(x)
        assert z is not x and not np.shares_memory(z, x)
        assert x.tobytes() == before
        assert z.tobytes() == net.forward(x)[0].tobytes()
        np.testing.assert_array_equal(np.signbit(z[1]), [True, False, True])

    def test_second_call_leaves_the_first_result_alone(self):
        net = tiny_net()
        rng = np.random.default_rng(6)
        queries = net.embed(rng.normal(size=(7, 3)))
        kept = queries.copy()
        net.embed(rng.normal(size=(7, 3)))
        assert queries.tobytes() == kept.tobytes()


class TestBackward:
    def test_zero_depth_has_no_parameter_grads(self):
        net = MLPEmbedder((3,))
        z, cache = net.forward(np.array([[1.0, 2.0, 2.0]]))
        assert net.backward(cache, z.copy()).shape == (0,)

    def test_radial_component_annihilated(self):
        net = tiny_net(seed=3)
        x = np.random.default_rng(3).normal(size=(4, 3))
        z, cache = net.forward(x)
        # grad_z parallel to z per row contributes nothing to any parameter
        # (exact up to the 1e-12 norm epsilon, whose residue scales as eps/s^4)
        grad = net.backward(cache, z * np.array([[2.0], [3.0], [-1.0], [0.5]]))
        np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-8)

    def test_zero_grad_z(self):
        net = tiny_net()
        x = np.random.default_rng(4).normal(size=(4, 3))
        z, cache = net.forward(x)
        assert not net.backward(cache, np.zeros_like(z)).any()

    def test_shape_mismatch(self):
        net = tiny_net()
        z, cache = net.forward(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            net.backward(cache, np.zeros((3, 4)))

    def test_parameter_grads_match_finite_differences(self):
        net = MLPEmbedder((3, 6, 2), seed=5)
        x = np.random.default_rng(5).normal(size=(6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        cfg = PairMinerConfig()

        def loss_of(embedder):
            z = embedder.embed(x)
            b = EmbeddingBatch(vectors=z, labels=labels)
            return contrastive_loss(b, b, cfg).value

        z, cache = net.forward(x)
        b = EmbeddingBatch(vectors=z, labels=labels)
        out = contrastive_loss(b, b, cfg)
        analytic = net.layers(net.backward(cache, out.grad))
        numeric = central_diff_param_grads(net, loss_of)
        assert relative_grad_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("dims", [(3, 2), (3, 8, 4), (5, 7, 6, 3)])
    def test_matches_per_layer_oracle_bit_for_bit(self, dims):
        net = MLPEmbedder(dims, seed=13)
        rng = np.random.default_rng(14)
        z, cache = net.forward(rng.normal(size=(9, dims[0])))
        grad_z = rng.normal(size=z.shape)
        grad = net.backward(cache, grad_z)
        expected = per_layer_backward(net, cache, grad_z)
        assert len(net.layers(grad)) == len(expected)
        for (dw, db), (ew, eb) in zip(net.layers(grad), expected):
            assert dw.tobytes() == ew.tobytes() and db.tobytes() == eb.tobytes()


class TestOptimizer:
    def test_plain_sgd_step(self):
        net = MLPEmbedder((2, 2), seed=1)
        opt = Optimizer(OptimizerConfig(kind="sgd", learning_rate=0.1), net)
        w_before = net.weights[0].copy()
        grad = np.zeros_like(net.params)
        net.layers(grad)[0][0][...] = 1.0  # ones on the weights, zero on the bias
        opt.step(grad, epoch=0)
        np.testing.assert_allclose(net.weights[0], w_before - 0.1, atol=1e-15)

    def test_schedule(self):
        cfg = OptimizerConfig(kind="adamw", learning_rate=1e-4,
                              schedule_gamma=0.33, schedule_every=15)
        assert cfg.lr_at(0) == 1e-4
        assert cfg.lr_at(14) == 1e-4
        assert cfg.lr_at(15) == pytest.approx(0.33e-4)
        assert cfg.lr_at(30) == pytest.approx(0.33**2 * 1e-4)

    def test_adamw_zero_grad_fixed_point(self):
        net = MLPEmbedder((2, 2), seed=2)
        opt = Optimizer(OptimizerConfig(kind="adamw", weight_decay=0.0), net)
        w_before = net.weights[0].copy()
        opt.step(np.zeros_like(net.params), epoch=0)
        np.testing.assert_array_equal(net.weights[0], w_before)

    def test_adamw_decoupled_weight_decay(self):
        # with zero gradient, decay shrinks parameters multiplicatively
        net = MLPEmbedder((2, 2), seed=2)
        lr, wd = 1e-2, 0.5
        opt = Optimizer(OptimizerConfig(kind="adamw", learning_rate=lr, weight_decay=wd), net)
        w_before = net.weights[0].copy()
        opt.step(np.zeros_like(net.params), epoch=0)
        np.testing.assert_allclose(net.weights[0], w_before * (1 - lr * wd), atol=1e-15)

    def test_gradient_of_wrong_shape_rejected(self):
        net = tiny_net()
        opt = Optimizer(OptimizerConfig(), net)
        before = net.params.copy()
        for bad in (np.zeros(net.params.size - 1), np.zeros((1, net.params.size))):
            with pytest.raises(ShapeMismatch):
                opt.step(bad, epoch=0)
        assert net.params.tobytes() == before.tobytes()

    def test_invalid_kind(self):
        with pytest.raises(InvalidConfig):
            OptimizerConfig(kind="rmsprop").validate()

    @pytest.mark.parametrize("config", [
        OptimizerConfig(kind="sgd", learning_rate=0.05),
        OptimizerConfig(kind="sgd", learning_rate=0.05, weight_decay=0.01),
        OptimizerConfig(kind="adamw", learning_rate=1e-2),
        OptimizerConfig(kind="adamw", learning_rate=1e-2, weight_decay=0.1,
                        schedule_gamma=0.5, schedule_every=2),
    ])
    def test_matches_per_array_oracle_bit_for_bit(self, config):
        # 50 steps: 20 training the last layer only, then a fresh optimizer
        # for every layer, as at the warmup/main stage change
        net = MLPEmbedder((5, 7, 6, 3), seed=11)
        oracle_params = [p.copy() for pair in zip(net.weights, net.biases) for p in pair]
        opt = Optimizer(config, net, last_layer_only=True)
        oracle = PerArrayOptimizer(config, oracle_params)
        trainable = [len(oracle_params) - 2, len(oracle_params) - 1]
        rng = np.random.default_rng(12)
        for step in range(50):
            if step == 20:
                opt = Optimizer(config, net)
                oracle = PerArrayOptimizer(config, oracle_params)
                trainable = range(len(oracle_params))
            grad = rng.normal(size=net.params.shape)
            epoch = step // 10
            opt.step(grad, epoch)
            oracle_grads = [g.copy() for pair in net.layers(grad) for g in pair]
            oracle.step(oracle_params, oracle_grads, trainable, epoch)
            assert net.params.tobytes() == b"".join(p.tobytes() for p in oracle_params), step


class TestFreeze:
    def test_frozen_layers_untouched(self):
        net = tiny_net(seed=9)
        opt = Optimizer(OptimizerConfig(kind="sgd", learning_rate=0.5), net, last_layer_only=True)
        first_before = net.weights[0].copy()
        last_before = net.weights[-1].copy()
        opt.step(np.ones_like(net.params), epoch=0)
        np.testing.assert_array_equal(net.weights[0], first_before)
        assert np.abs(net.weights[-1] - last_before).max() > 0

    def test_unfrozen_step_touches_every_layer(self):
        net = tiny_net(seed=9)
        opt = Optimizer(OptimizerConfig(kind="sgd", learning_rate=0.5), net)
        before = [w.copy() for w in net.weights]
        opt.step(np.ones_like(net.params), epoch=0)
        for w_before, w_after in zip(before, net.weights):
            assert np.abs(w_after - w_before).max() > 0

    def test_trainable_layers(self):
        # last_layer_only trains exactly the final weight and bias elements
        net = MLPEmbedder((3, 8, 5, 4), seed=9)
        opt = Optimizer(OptimizerConfig(kind="sgd", learning_rate=0.5), net, last_layer_only=True)
        before = net.params.copy()
        opt.step(np.ones_like(net.params), epoch=0)
        expected = np.zeros_like(net.params)
        for part in net.layers(expected)[-1]:
            part[...] = 1.0
        np.testing.assert_array_equal(net.params != before, expected == 1.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = tiny_net(seed=4)
        path = tmp_path / "net.xbnc"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.layer_dims == net.layer_dims
        for a, b in zip(net.weights, loaded.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(net.biases, loaded.biases):
            np.testing.assert_array_equal(a, b)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.xbnc"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_truncated(self, tmp_path):
        net = tiny_net(seed=4)
        path = tmp_path / "net.xbnc"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @staticmethod
    def _header(dims):
        return b"XBNC" + struct.pack("<HHI", 1, 1, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)

    def test_huge_claim_in_short_file_fails_without_allocating(self, tmp_path):
        path = tmp_path / "huge.xbnc"
        path.write_bytes(self._header((2000, 2000)))  # 20 bytes claiming 32 MB
        assert path.stat().st_size == 20
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_u32_max_dims_is_format_error(self, tmp_path):
        path = tmp_path / "max.xbnc"
        path.write_bytes(self._header((2**32 - 1, 2**32 - 1)) + bytes(64))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_loaded_parameters_are_writable(self, tmp_path):
        path = tmp_path / "net.xbnc"
        save_checkpoint(tiny_net(seed=4), path)
        loaded = load_checkpoint(path)
        assert all(a.flags.writeable for a in loaded.weights + loaded.biases)

    def test_trailing_bytes(self, tmp_path):
        net = tiny_net(seed=4)
        path = tmp_path / "net.xbnc"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestClone:
    def test_clone_is_independent(self):
        net = tiny_net(seed=6)
        other = net.clone()
        other.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != other.weights[0][0, 0]
        assert other.layer_dims == net.layer_dims
