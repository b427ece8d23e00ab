import struct
import tracemalloc

import numpy as np
import pytest

import crossbatch.embedder as embedder_module
from crossbatch import (
    EmbeddingBatch,
    FormatError,
    InvalidConfig,
    MLPEmbedder,
    NonFiniteInput,
    Optimizer,
    ShapeMismatch,
    TrainConfig,
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


A6_DIMS = (32, 64, 32, 16)  # the trainer's default net on 32-d inputs
A6_BLOCK = embedder_module._BLOCK_BYTES // (8 * 64)  # rows per block at width 64


def block_sizes(monkeypatch, net, *args):
    """The row count of every block embed(*args) runs, and its result."""
    sizes, run = [], MLPEmbedder._run

    def spy(self, x, layer_inputs):
        sizes.append(len(x))
        return run(self, x, layer_inputs)

    with monkeypatch.context() as patch:
        patch.setattr(MLPEmbedder, "_run", spy)
        z = net.embed(*args)
    return sizes, z


class TestBlockedEmbed:
    """embed() runs its rows in blocks; each result equals the one-shot forward()'s."""

    @pytest.mark.parametrize(
        "n", [0, 1, 2, A6_BLOCK - 1, A6_BLOCK, A6_BLOCK + 1, 2 * A6_BLOCK + 1, 4000]
    )
    def test_equals_the_one_shot_layer_loop(self, n):
        net = MLPEmbedder(A6_DIMS, seed=n)
        rng = np.random.default_rng(n)
        features = rng.normal(size=(n + 7, 32))
        rows = rng.permutation(n + 7)[:n]
        z, _ = net.forward(features[rows])
        assert net.embed(features, rows).tobytes() == z.tobytes()
        assert net.embed(features[rows]).tobytes() == z.tobytes()

    def test_blocks_are_balanced_and_never_one_row(self, monkeypatch):
        net = MLPEmbedder(A6_DIMS, seed=1)
        x = np.random.default_rng(1).normal(size=(2 * A6_BLOCK + 40, 32))
        for n in [1, 2, 3, A6_BLOCK, A6_BLOCK + 1, A6_BLOCK + 2, 2 * A6_BLOCK + 1, len(x)]:
            sizes, _ = block_sizes(monkeypatch, net, x[:n])
            assert sum(sizes) == n and max(sizes) <= A6_BLOCK
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 2 or n == 1
        # a budget below 4 rows still runs blocks of 2 rows at least
        monkeypatch.setattr(embedder_module, "_BLOCK_BYTES", 8)
        for n in range(2, 40):
            sizes, z = block_sizes(monkeypatch, net, x[:n])
            assert sum(sizes) == n and min(sizes) >= 2 and max(sizes) <= 4
            assert z.tobytes() == net.forward(x[:n])[0].tobytes()

    def test_shape_checked_with_no_rows(self):
        net = MLPEmbedder(A6_DIMS, seed=6)
        assert net.embed(np.zeros((0, 32))).shape == (0, 16)
        with pytest.raises(ShapeMismatch):
            net.embed(np.zeros((0, 31)))
        with pytest.raises(ShapeMismatch):
            net.embed(np.zeros((5, 31)), np.array([], dtype=np.int64))

    def test_float32_inputs(self):
        net = MLPEmbedder(A6_DIMS, seed=2)
        features = np.random.default_rng(2).normal(size=(1500, 32)).astype(np.float32)
        rows = np.arange(0, 1500, 2)
        z, _ = net.forward(features[rows].astype(np.float64))
        assert net.embed(features, rows).tobytes() == z.tobytes()
        assert net.embed(features).tobytes() == net.forward(features)[0].tobytes()

    def test_nonfinite_input_in_a_later_block(self, monkeypatch):
        net = MLPEmbedder(A6_DIMS, seed=3)
        x = np.random.default_rng(3).normal(size=(3 * A6_BLOCK, 32))
        x[-1, 5] = np.nan  # in the third of three blocks
        assert len(block_sizes(monkeypatch, net, x[:-1])[0]) == 3
        with pytest.raises(NonFiniteInput):
            net.embed(x)
        with pytest.raises(NonFiniteInput):
            net.embed(x, np.arange(len(x)))

    def test_zero_depth_never_writes_its_input(self, monkeypatch):
        monkeypatch.setattr(embedder_module, "_BLOCK_BYTES", 8 * 3 * 5)  # blocks of 5 rows
        net = MLPEmbedder((3,))
        x = np.random.default_rng(4).normal(size=(23, 3))
        before = x.tobytes()
        for z in (net.embed(x), net.embed(x, np.arange(23)[::-1])):
            assert not np.shares_memory(z, x)
        assert x.tobytes() == before
        assert net.embed(x).tobytes() == net.forward(x)[0].tobytes()

    def test_peak_memory_of_4000_rows(self):
        # The 4000 x 16 result (500 KiB) plus one block's gathered inputs and
        # layer outputs, not 4000-row layer outputs (2 MiB at width 64 alone).
        net = MLPEmbedder(A6_DIMS, seed=5)
        features = np.random.default_rng(5).normal(size=(8000, 32))
        rows = np.arange(1, 8000, 2)
        tracemalloc.start()
        try:
            net.embed(features, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 16 * 8 + 3 * embedder_module._BLOCK_BYTES


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
        cfg = TrainConfig()

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
    def test_adamw_zero_grad_fixed_point(self):
        net = MLPEmbedder((2, 2), seed=2)
        opt = Optimizer(TrainConfig(weight_decay=0.0), net)
        w_before = net.weights[0].copy()
        opt.step(np.zeros_like(net.params), lr=1e-4)
        np.testing.assert_array_equal(net.weights[0], w_before)

    def test_adamw_decoupled_weight_decay(self):
        # with zero gradient, decay shrinks parameters multiplicatively
        net = MLPEmbedder((2, 2), seed=2)
        lr, wd = 1e-2, 0.5
        opt = Optimizer(TrainConfig(lr=lr, weight_decay=wd), net)
        w_before = net.weights[0].copy()
        opt.step(np.zeros_like(net.params), lr=lr)
        np.testing.assert_allclose(net.weights[0], w_before * (1 - lr * wd), atol=1e-15)

    def test_gradient_of_wrong_shape_rejected(self):
        net = tiny_net()
        opt = Optimizer(TrainConfig(), net)
        before = net.params.copy()
        for bad in (np.zeros(net.params.size - 1), np.zeros((1, net.params.size))):
            with pytest.raises(ShapeMismatch):
                opt.step(bad, lr=1e-4)
        assert net.params.tobytes() == before.tobytes()

    def test_removed_sgd_and_last_layer_only(self):
        # AdamW over every parameter is the only rule; the warmup's step lives in TrainingRun
        with pytest.raises(TypeError, match="kind"):
            TrainConfig(kind="sgd")
        with pytest.raises(TypeError, match="last_layer_only"):
            Optimizer(TrainConfig(), tiny_net(), last_layer_only=True)

    @pytest.mark.parametrize("config", [
        TrainConfig(lr=1e-2, schedule_gamma=1.0, schedule_every=0),
        TrainConfig(lr=1e-2, weight_decay=0.1, schedule_gamma=0.5, schedule_every=2),
    ])
    def test_matches_per_array_oracle_bit_for_bit(self, config):
        net = MLPEmbedder((5, 7, 6, 3), seed=11)
        oracle_params = [p.copy() for pair in zip(net.weights, net.biases) for p in pair]
        opt = Optimizer(config, net)
        oracle = PerArrayOptimizer(config, oracle_params)
        rng = np.random.default_rng(12)
        for step in range(50):
            grad = rng.normal(size=net.params.shape)
            epoch = step // 10
            opt.step(grad, config.lr_at(epoch))
            oracle.step(oracle_params, [g.copy() for pair in net.layers(grad) for g in pair], epoch)
            assert net.params.tobytes() == b"".join(p.tobytes() for p in oracle_params), step


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

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "net.xbnc"
        save_checkpoint(tiny_net(seed=4), path)
        path.write_bytes(path.read_bytes()[:9])
        with pytest.raises(FormatError, match="truncated checkpoint header") as err:
            load_checkpoint(path)
        assert err.value.offset == 9

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "net.xbnc"
        save_checkpoint(tiny_net(seed=4), path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (2).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="unsupported checkpoint version 2") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

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

    @pytest.mark.parametrize("flags", [0x0, 0x8001])
    def test_flags_other_than_f8_rejected(self, tmp_path, flags):
        # 0 is the f4 layout, which save_checkpoint never writes
        path = tmp_path / "net.xbnc"
        save_checkpoint(tiny_net(seed=4), path)
        blob = bytearray(path.read_bytes())
        blob[6:8] = flags.to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 6

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
