import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbatch import (
    EPS_STD,
    DimensionMismatch,
    EmbeddingBatch,
    InsufficientSamples,
    MemoryBank,
    MomentStats,
    NonFiniteInput,
    ShapeMismatch,
    compute_moments,
    diag_gaussian_kl,
)
from oracles import two_pass_moments


def batch_of(rows, labels=None):
    rows = np.asarray(rows, dtype=np.float64)
    if labels is None:
        labels = np.zeros(len(rows), dtype=np.int64)
    return EmbeddingBatch(vectors=rows, labels=labels)


def random_batch(rng, n, d):
    return batch_of(rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0), rng.integers(0, 5, size=n))


class TestComputeMoments:
    def test_two_symmetric_points(self):
        stats = compute_moments(batch_of([(1.0, 2.0), (3.0, 4.0)]))
        np.testing.assert_array_equal(stats.mean, [2.0, 3.0])
        np.testing.assert_array_equal(stats.std, [1.0, 1.0])

    def test_constant_column_floored(self):
        stats = compute_moments(batch_of(np.full((7, 3), 4.25)))
        np.testing.assert_array_equal(stats.std, np.full(3, EPS_STD))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, 100, 6)
        stats = compute_moments(batch)
        mean_o, std_o = two_pass_moments(batch.vectors)
        np.testing.assert_allclose(stats.mean, mean_o, rtol=1e-12)
        np.testing.assert_allclose(stats.std, std_o, rtol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientSamples):
            compute_moments(batch_of([(1.0, 2.0)]))

    @pytest.mark.parametrize("layout", ["fortran", "strided", "one_column"])
    def test_every_layout_equals_numpy_bitwise(self, layout):
        # numpy sums a contiguous column pairwise, not row by row; these
        # layouts must still give mean() and std() to the last bit
        rng = np.random.default_rng(12)
        for n in (5, 37, 300, 1001):
            base = rng.normal(size=(n, 16)) * rng.uniform(1e-3, 5.0, 16) + 2.0
            vectors = {
                "fortran": np.asfortranarray(base),
                "strided": base[:, ::2],
                "one_column": base[:, :1].copy(),
            }[layout]
            stats = compute_moments(batch_of(vectors))  # keeps the layout
            assert stats.mean.tobytes() == vectors.mean(axis=0).tobytes()
            assert stats.std.tobytes() == np.maximum(EPS_STD, vectors.std(axis=0)).tobytes()


@given(
    n=st.integers(min_value=2, max_value=1100),
    d=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_moments_equal_numpy_mean_and_std_bitwise(n, d, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d)) * rng.uniform(1e-3, 5.0, d) + rng.uniform(-3.0, 3.0, d)
    stats = compute_moments(batch_of(vectors))
    assert stats.mean.tobytes() == vectors.mean(axis=0).tobytes()
    assert stats.std.tobytes() == np.maximum(EPS_STD, vectors.std(axis=0)).tobytes()


class TestEmbeddingBatchValidation:
    def test_nan_rejected(self):
        with pytest.raises(NonFiniteInput):
            batch_of([(1.0, float("nan"))])

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteInput):
            batch_of([(float("inf"), 0.0)])

    def test_one_dim_vectors_rejected(self):
        with pytest.raises(ShapeMismatch):
            EmbeddingBatch(vectors=np.zeros(4), labels=np.zeros(4, dtype=np.int64))

    def test_stats_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            MomentStats(mean=np.zeros(3), std=np.ones(2))

    def test_label_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            EmbeddingBatch(vectors=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64))


def adapted(batch, target) -> MemoryBank:
    """A bank holding batch after MemoryBank.adapt, the XBN transform, onto target."""
    bank = MemoryBank(capacity=batch.n, dim=batch.dim)
    bank.enqueue(batch)
    bank.adapt(target)
    return bank


class TestXbnTransform:
    def test_identity_when_stats_equal(self):
        rng = np.random.default_rng(0)
        batch = random_batch(rng, 20, 4)
        bank = adapted(batch, compute_moments(batch))
        np.testing.assert_allclose(bank.vectors, batch.vectors, atol=1e-12)

    def test_hand_example_1d(self):
        # {0, 2} has mean 1, std 1; retargeting to mean 5, std 2 gives {3, 7}
        target = MomentStats(mean=np.array([5.0]), std=np.array([2.0]))
        bank = adapted(batch_of([(0.0,), (2.0,)]), target)
        np.testing.assert_allclose(bank.vectors.ravel(), [3.0, 7.0], atol=1e-12)

    def test_recomputed_moments_hit_target(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 64, 8)
        target = MomentStats(
            mean=rng.normal(size=8), std=rng.uniform(0.1, 2.0, size=8)
        )
        after = compute_moments(batch_of(adapted(batch, target).vectors))
        np.testing.assert_allclose(after.mean, target.mean, atol=1e-9)
        np.testing.assert_allclose(after.std, target.std, atol=1e-9)

    def test_input_unmodified_and_labels_carried(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, 10, 3)
        before = batch.vectors.copy()
        bank = adapted(batch, MomentStats(mean=np.ones(3), std=np.ones(3)))
        np.testing.assert_array_equal(batch.vectors, before)
        np.testing.assert_array_equal(bank.labels, batch.labels)
        assert not np.shares_memory(bank.vectors, batch.vectors)

    def test_dimension_mismatch(self):
        # the bad target is refused before any row changes
        bank = MemoryBank(capacity=2, dim=2)
        bank.enqueue(batch_of([(0.0, 1.0), (1.0, 0.0)]))
        bad = MomentStats(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(DimensionMismatch):
            bank.adapt(bad)
        np.testing.assert_array_equal(bank.vectors, [(0.0, 1.0), (1.0, 0.0)])

    def test_scalar_affine_consistency(self):
        # In 1-d the transform is z -> Az + b with A = std'/std, b = mu' - A mu,
        # and the moments transform as mu' = A mu + b, std'^2 = A^2 std^2.
        batch = batch_of([(1.0,), (1.5,), (2.0,)])
        src = compute_moments(batch)
        tgt = MomentStats(mean=np.array([-2.0]), std=np.array([3.0]))
        a = tgt.std[0] / src.std[0]
        b = tgt.mean[0] - a * src.mean[0]
        assert a * src.mean[0] + b == pytest.approx(tgt.mean[0], abs=1e-12)
        assert a**2 * src.std[0] ** 2 == pytest.approx(tgt.std[0] ** 2, rel=1e-12)
        bank = adapted(batch, tgt)
        np.testing.assert_allclose(bank.vectors, a * batch.vectors + b, atol=1e-12)


class TestDiagGaussianKl:
    def test_identical_stats_zero(self):
        s = MomentStats(mean=np.array([0.3, -1.0]), std=np.array([1.0, 0.2]))
        assert diag_gaussian_kl(s, s) == pytest.approx(0.0, abs=1e-15)

    def test_unit_mean_shift(self):
        p = MomentStats(mean=np.array([0.0]), std=np.array([1.0]))
        q = MomentStats(mean=np.array([1.0]), std=np.array([1.0]))
        assert diag_gaussian_kl(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_post_transform_kl_tiny(self):
        rng = np.random.default_rng(3)
        bank = MemoryBank(capacity=48, dim=6)
        bank.enqueue(random_batch(rng, 48, 6))
        target = MomentStats(
            mean=rng.normal(size=6), std=rng.uniform(0.2, 1.5, size=6)
        )
        bank.adapt(target)
        assert diag_gaussian_kl(bank.stats(), target) < 1e-9

    def test_dimension_mismatch(self):
        p = MomentStats(mean=np.zeros(2), std=np.ones(2))
        q = MomentStats(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(DimensionMismatch):
            diag_gaussian_kl(p, q)


finite_rows = st.integers(min_value=2, max_value=40)
dims = st.integers(min_value=1, max_value=8)


@st.composite
def batch_and_target(draw):
    n = draw(finite_rows)
    d = draw(dims)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    batch = batch_of(rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0))
    target = MomentStats(
        mean=rng.uniform(-3, 3, size=d), std=rng.uniform(0.05, 4.0, size=d)
    )
    return batch, target


@given(batch_and_target())
@settings(max_examples=60, deadline=None)
def test_property_exact_moment_matching(case):
    batch, target = case
    after = adapted(batch, target).stats()
    np.testing.assert_allclose(after.mean, target.mean, atol=1e-9)
    np.testing.assert_allclose(after.std, target.std, atol=1e-9)


@given(batch_and_target())
@settings(max_examples=40, deadline=None)
def test_property_transform_idempotent(case):
    batch, target = case
    bank = adapted(batch, target)
    once = bank.vectors.copy()
    bank.adapt(target)
    np.testing.assert_allclose(bank.vectors, once, atol=1e-9)


@given(batch_and_target())
@settings(max_examples=60, deadline=None)
def test_property_kl_nonnegative(case):
    batch, target = case
    stats = compute_moments(batch)
    assert diag_gaussian_kl(stats, target) >= 0.0
    assert diag_gaussian_kl(target, stats) >= 0.0
