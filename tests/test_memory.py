import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbatch import (
    DimensionMismatch,
    EmbeddingBatch,
    InsufficientSamples,
    InvalidConfig,
    MemoryBank,
    MomentStats,
    compute_moments,
    xbn_transform,
)
from oracles import FifoList


def batch_of(rows, labels=None):
    rows = np.asarray(rows, dtype=np.float64)
    if labels is None:
        labels = np.arange(len(rows), dtype=np.int64)
    return EmbeddingBatch(vectors=rows, labels=labels)


def rows(n, d, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestEnqueue:
    def test_under_capacity_keeps_order(self):
        bank = MemoryBank(capacity=4, dim=2)
        bank.enqueue(batch_of([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], [5, 6, 7]))
        assert len(bank) == 3
        np.testing.assert_array_equal(bank.labels, [5, 6, 7])
        np.testing.assert_array_equal(bank.vectors[:, 0], [0.0, 1.0, 2.0])

    def test_fifo_eviction(self):
        bank = MemoryBank(capacity=4, dim=1)
        bank.enqueue(batch_of([(0.0,), (1.0,), (2.0,)], [0, 1, 2]))
        bank.enqueue(batch_of([(3.0,), (4.0,)], [3, 4]))
        np.testing.assert_array_equal(bank.labels, [1, 2, 3, 4])
        np.testing.assert_array_equal(bank.vectors.ravel(), [1.0, 2.0, 3.0, 4.0])

    def test_oversized_batch_keeps_its_tail(self):
        bank = MemoryBank(capacity=3, dim=1)
        bank.enqueue(batch_of(rows(2, 1, seed=1), [0, 1]))
        big = batch_of(rows(8, 1, seed=2), np.arange(8))
        bank.enqueue(big)
        np.testing.assert_array_equal(bank.vectors, big.vectors[-3:])
        np.testing.assert_array_equal(bank.labels, big.labels[-3:])

    def test_dim_mismatch(self):
        bank = MemoryBank(capacity=4, dim=3)
        with pytest.raises(DimensionMismatch):
            bank.enqueue(batch_of(rows(2, 2)))

    def test_zero_capacity_stays_empty(self):
        bank = MemoryBank(capacity=0, dim=2)
        bank.enqueue(batch_of(rows(5, 2)))
        assert len(bank) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidConfig):
            MemoryBank(capacity=-1, dim=2)


class TestAdapt:
    def _filled(self, n=12, d=4, seed=3):
        bank = MemoryBank(capacity=32, dim=d)
        bank.enqueue(batch_of(rows(n, d, seed=seed), np.arange(n) % 3))
        return bank

    def test_identity_target_is_noop(self):
        bank = self._filled()
        before = bank.vectors.copy()
        bank.adapt(bank.stats())
        np.testing.assert_allclose(bank.vectors, before, atol=1e-12)

    def test_moments_hit_target(self):
        bank = self._filled()
        rng = np.random.default_rng(4)
        target = MomentStats(mean=rng.normal(size=4), std=rng.uniform(0.1, 2.0, size=4))
        bank.adapt(target)
        after = bank.stats()
        np.testing.assert_allclose(after.mean, target.mean, atol=1e-9)
        np.testing.assert_allclose(after.std, target.std, atol=1e-9)

    def test_two_adapts_collapse_to_last(self):
        rng = np.random.default_rng(5)
        t1 = MomentStats(mean=rng.normal(size=4), std=rng.uniform(0.1, 2.0, size=4))
        t2 = MomentStats(mean=rng.normal(size=4), std=rng.uniform(0.1, 2.0, size=4))
        twice = self._filled()
        twice.adapt(t1)
        twice.adapt(t2)
        once = self._filled()
        once.adapt(t2)
        np.testing.assert_allclose(twice.vectors, once.vectors, atol=1e-9)

    def test_preserves_order_labels_count(self):
        bank = self._filled()
        labels_before = bank.labels.copy()
        order_proxy = np.argsort(bank.vectors[:, 0], kind="stable")
        bank.adapt(MomentStats(mean=np.zeros(4), std=np.full(4, 2.0)))
        assert len(bank) == 12
        np.testing.assert_array_equal(bank.labels, labels_before)
        # per-dimension affine with positive scale preserves each column's ordering
        np.testing.assert_array_equal(np.argsort(bank.vectors[:, 0], kind="stable"), order_proxy)

    def test_too_few_entries(self):
        bank = MemoryBank(capacity=8, dim=2)
        bank.enqueue(batch_of(rows(1, 2)))
        with pytest.raises(InsufficientSamples):
            bank.adapt(MomentStats(mean=np.zeros(2), std=np.ones(2)))

    def test_matches_xbn_transform_bit_for_bit(self):
        bank = self._filled()
        rng = np.random.default_rng(6)
        target = MomentStats(mean=rng.normal(size=4), std=rng.uniform(0.1, 2.0, size=4))
        before = bank.as_batch()
        want = xbn_transform(before, compute_moments(before), target)
        bank.adapt(target)
        np.testing.assert_array_equal(bank.vectors, want.vectors)
        np.testing.assert_array_equal(bank.labels, want.labels)

    def test_rebinds_instead_of_writing_in_place(self):
        # adapt writes into the bank's other buffer: rows viewed before it stay intact
        bank = self._filled()
        vectors, labels = bank.vectors, bank.labels
        snapshot = vectors.copy()
        bank.adapt(MomentStats(mean=np.ones(4), std=np.full(4, 3.0)))
        assert not np.shares_memory(bank.vectors, vectors)
        np.testing.assert_array_equal(vectors, snapshot)
        assert np.shares_memory(bank.labels, labels)

    def test_target_dim_mismatch(self):
        bank = self._filled()
        with pytest.raises(DimensionMismatch):
            bank.adapt(MomentStats(mean=np.zeros(3), std=np.ones(3)))


class TestReferenceSet:
    def test_empty_bank_returns_batch_object(self):
        bank = MemoryBank(capacity=4, dim=2)
        batch = batch_of(rows(3, 2))
        assert bank.reference_set(batch) is batch

    def test_concatenation_bank_first(self):
        bank = MemoryBank(capacity=16, dim=2)
        stored = batch_of(rows(10, 2, seed=7), np.arange(10))
        bank.enqueue(stored)
        batch = batch_of(rows(6, 2, seed=8), np.arange(100, 106))
        ref = bank.reference_set(batch)
        assert ref.n == 16
        np.testing.assert_array_equal(ref.vectors[:10], stored.vectors)
        np.testing.assert_array_equal(ref.vectors[10:], batch.vectors)
        np.testing.assert_array_equal(ref.labels, np.concatenate([stored.labels, batch.labels]))

    def test_dim_mismatch(self):
        bank = MemoryBank(capacity=4, dim=2)
        bank.enqueue(batch_of(rows(2, 2)))
        with pytest.raises(DimensionMismatch):
            bank.reference_set(batch_of(rows(2, 3)))


class TestStateRestore:
    def test_round_trip(self):
        # what a failed training step does between state() and restore()
        bank = MemoryBank(capacity=8, dim=2)
        bank.enqueue(batch_of(rows(4, 2, seed=1), np.arange(4)))
        saved = bank.state()
        vectors_before = bank.vectors.copy()
        bank.adapt(MomentStats(mean=np.zeros(2), std=np.ones(2)))
        bank.reference_set(batch_of(rows(6, 2, seed=2), np.arange(6)))
        bank.restore(saved)
        np.testing.assert_array_equal(bank.vectors, vectors_before)
        np.testing.assert_array_equal(bank.labels, np.arange(4))
        assert len(bank) == 4

    def test_only_one_adapt_can_be_undone(self):
        target = MomentStats(mean=np.zeros(2), std=np.ones(2))
        for after in (
            lambda bank: bank.enqueue(batch_of(rows(2, 2, seed=3))),
            lambda bank: (bank.adapt(target), bank.enqueue(batch_of(rows(2, 2, seed=3)))),
            lambda bank: (bank.adapt(target), bank.adapt(target)),
        ):
            bank = MemoryBank(capacity=8, dim=2)
            bank.enqueue(batch_of(rows(4, 2, seed=1), np.arange(4)))
            saved = bank.state()
            after(bank)
            with pytest.raises(ValueError, match="one adapt"):
                bank.restore(saved)


@st.composite
def enqueue_sequences(draw):
    capacity = draw(st.integers(min_value=0, max_value=12))
    n_batches = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(0, 9)) for _ in range(n_batches)]
    return capacity, sizes, seed


@given(enqueue_sequences())
@settings(max_examples=80, deadline=None)
def test_property_matches_list_fifo(case):
    capacity, sizes, seed = case
    rng = np.random.default_rng(seed)
    bank = MemoryBank(capacity=capacity, dim=3)
    sim = FifoList(capacity)
    for size in sizes:
        vectors = rng.normal(size=(size, 3))
        labels = rng.integers(0, 10, size=size)
        bank.enqueue(EmbeddingBatch(vectors=vectors, labels=labels))
        sim.push_batch(vectors, labels)
        assert len(bank) <= capacity
        assert len(bank) == len(sim.items)
        np.testing.assert_allclose(bank.vectors, np.array(sim.vectors()).reshape(-1, 3))
        np.testing.assert_array_equal(bank.labels, sim.labels())


def _model_batch(sim: FifoList, dim: int) -> EmbeddingBatch:
    return EmbeddingBatch(np.array(sim.vectors(), dtype=np.float64).reshape(-1, dim), sim.labels())


@given(
    capacity=st.integers(min_value=0, max_value=12),
    dim=st.integers(min_value=1, max_value=4),
    ops=st.lists(
        st.tuples(st.sampled_from(["enqueue", "adapt", "reference_set", "failed_step"]),
                  st.integers(min_value=0, max_value=9)),
        max_size=14,
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=120, deadline=None)
def test_property_interleaved_operations_match_models(capacity, dim, ops, seed):
    # the bank against a list FIFO whose adaptation is xbn_transform, bit for bit
    rng = np.random.default_rng(seed)
    bank = MemoryBank(capacity=capacity, dim=dim)
    sim = FifoList(capacity)
    for op, size in ops:
        batch = batch_of(rng.normal(size=(size, dim)), rng.integers(0, 5, size=size))
        target = MomentStats(mean=rng.normal(size=dim), std=rng.uniform(0.1, 2.0, dim))
        if op == "enqueue":
            bank.enqueue(batch)
            sim.push_batch(batch.vectors, batch.labels)
        elif op == "adapt" and len(bank) >= 2:
            bank.adapt(target)
            stored = _model_batch(sim, dim)
            adapted = xbn_transform(stored, compute_moments(stored), target)
            sim.items = list(zip(map(tuple, adapted.vectors.tolist()), sim.labels()))
        elif op == "reference_set":
            ref = bank.reference_set(batch)
            want = _model_batch(sim, dim)
            assert ref.vectors.tobytes() == np.concatenate([want.vectors, batch.vectors]).tobytes()
            np.testing.assert_array_equal(ref.labels, np.concatenate([want.labels, batch.labels]))
        elif op == "failed_step":  # state, adapt, reference set, restore
            saved = bank.state()
            if len(bank) >= 2:
                bank.adapt(target)
            bank.reference_set(batch)
            bank.restore(saved)
        want = _model_batch(sim, dim)
        assert bank.vectors.tobytes() == want.vectors.tobytes()
        np.testing.assert_array_equal(bank.labels, want.labels)
