import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbatch import (
    EmbeddingBatch,
    InvalidConfig,
    MemoryBank,
    ShapeMismatch,
    TrainConfig,
    contrastive_loss,
    distance_matrix,
    mine_pairs,
    triplet_loss,
    xbm_loss,
)
from crossbatch import losses
from oracles import (
    brute_force_contrastive,
    brute_force_pairs,
    brute_force_triplet,
    index_list_contrastive,
)

CFG = TrainConfig(pos_margin=0.2, neg_margin=0.8)


def unit_rows(n, d, seed):
    v = np.random.default_rng(seed).normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def unit_batch(n, d, seed, n_classes=3):
    rng = np.random.default_rng(seed + 1)
    return EmbeddingBatch(vectors=unit_rows(n, d, seed), labels=rng.integers(0, n_classes, size=n))


def batch_grad_fd(loss_fn, vectors, h=1e-6):
    """Central finite differences of loss_fn(vectors) over every entry."""
    g = np.zeros_like(vectors)
    for i in range(vectors.shape[0]):
        for j in range(vectors.shape[1]):
            up = vectors.copy()
            up[i, j] += h
            down = vectors.copy()
            down[i, j] -= h
            g[i, j] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    return g


class TestMinePairs:
    def test_single_class_identical_vectors_mines_nothing(self):
        v = np.tile(unit_rows(1, 4, seed=2), (3, 1))
        batch = EmbeddingBatch(vectors=v, labels=np.zeros(3, dtype=np.int64))
        pairs = mine_pairs(batch, batch, CFG)
        assert len(pairs.positives) == 0  # d = 0 is not > pos_margin
        assert len(pairs.negatives) == 0  # no second class

    def test_margin_boundaries(self):
        # two vectors at distance 0.5: mined as positive if same label,
        # mined as negative if labels differ (0.2 < 0.5 < 0.8)
        theta = np.arccos(0.5)
        v = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
        same = EmbeddingBatch(vectors=v, labels=np.array([1, 1]))
        pairs = mine_pairs(same, same, CFG)
        assert sorted(map(tuple, pairs.positives)) == [(0, 1), (1, 0)]
        diff = EmbeddingBatch(vectors=v, labels=np.array([1, 2]))
        pairs = mine_pairs(diff, diff, CFG)
        assert sorted(map(tuple, pairs.negatives)) == [(0, 1), (1, 0)]

    def test_self_pair_is_positional_not_value_based(self):
        # batch row 0 also sits at reference column 0, ahead of the batch, with
        # the same label. Rows of norm 1/2 sit 0.75 from themselves, so that
        # duplicate is mined as a positive; only the self-pair (0, 1) is not.
        a = 0.5 * np.array([1.0, 0.0])
        b = 0.5 * np.array([np.cos(0.9), np.sin(0.9)])
        batch = EmbeddingBatch(vectors=np.stack([a, b]), labels=np.array([4, 4]))
        reference = EmbeddingBatch(vectors=np.stack([a, a, b]), labels=np.array([4, 4, 4]))
        pairs = mine_pairs(batch, reference, CFG)
        got = sorted(map(tuple, pairs.positives))
        assert got == [(0, 0), (0, 2), (1, 0), (1, 1)]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n_b, n_extra = int(rng.integers(2, 9)), int(rng.integers(0, 7))
        d = int(rng.integers(2, 6))
        batch = unit_batch(n_b, d, seed=seed * 7)
        extra = unit_batch(n_extra, d, seed=seed * 7 + 3) if n_extra else None
        if extra is not None:
            reference = EmbeddingBatch(
                vectors=np.concatenate([extra.vectors, batch.vectors]),
                labels=np.concatenate([extra.labels, batch.labels]),
            )
        else:
            reference = batch
        pairs = mine_pairs(batch, reference, CFG)
        pos_o, neg_o = brute_force_pairs(
            batch.vectors.tolist(), batch.labels.tolist(),
            reference.vectors.tolist(), reference.labels.tolist(),
            CFG.pos_margin, CFG.neg_margin, reference.n - batch.n,
        )
        assert sorted(map(tuple, pairs.positives)) == sorted(pos_o)
        assert sorted(map(tuple, pairs.negatives)) == sorted(neg_o)


class TestContrastiveLoss:
    def test_no_pairs_zero(self):
        batch = unit_batch(3, 4, seed=5, n_classes=1)
        v = np.tile(batch.vectors[:1], (3, 1))
        batch = EmbeddingBatch(vectors=v, labels=batch.labels * 0)
        out = contrastive_loss(batch, batch, CFG)
        assert out.value == 0.0
        np.testing.assert_array_equal(out.grad, np.zeros_like(batch.vectors))

    def test_single_positive_pair_hand_value(self):
        theta = np.arccos(0.5)  # d = 0.5
        v = np.array([[np.cos(theta), np.sin(theta)], [1.0, 0.0]])
        batch = EmbeddingBatch(vectors=v[1:], labels=np.array([3]))
        reference = EmbeddingBatch(vectors=v, labels=np.array([3, 3]))  # the batch is its tail
        out = contrastive_loss(batch, reference, CFG)
        assert out.value == pytest.approx(0.5 - 0.2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_value_matches_brute_force(self, seed):
        batch = unit_batch(6, 4, seed=seed)
        bankv = unit_batch(5, 4, seed=seed + 50)
        reference = EmbeddingBatch(
            vectors=np.concatenate([bankv.vectors, batch.vectors]),
            labels=np.concatenate([bankv.labels, batch.labels]),
        )
        out = contrastive_loss(batch, reference, CFG)
        want = brute_force_contrastive(
            batch.vectors.tolist(), batch.labels.tolist(),
            reference.vectors.tolist(), reference.labels.tolist(),
            CFG.pos_margin, CFG.neg_margin, 5,
        )
        assert out.value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("same_class, cosine", [(True, 0.75), (False, 0.25)])
    def test_hinges_one_ulp_past_the_margins(self, same_class, cosine):
        # seven reference rows at d = 0.25 (positives) or d = 0.75 (negatives)
        # exactly, each one ulp past its margin; for the positives the weighted
        # sum rounds to one ulp below pos_margin, so unclamped it reads -2.8e-17
        cfg = TrainConfig(pos_margin=np.nextafter(0.25, 0.0), neg_margin=np.nextafter(0.75, 1.0))
        query = np.array([[1.0, 0.0, 0.0]])
        phi = np.linspace(0.0, 3.0, 7)
        side = np.sqrt(1.0 - cosine**2)
        rows = np.stack([np.full(7, cosine), side * np.cos(phi), side * np.sin(phi)], axis=1)
        batch = EmbeddingBatch(vectors=query, labels=np.array([0]))
        reference = concat(EmbeddingBatch(rows, np.full(7, 0 if same_class else 1)), batch)
        pairs = mine_pairs(batch, reference, cfg)
        assert np.count_nonzero(pairs.pos_mask if same_class else pairs.neg_mask) == 7
        out = contrastive_loss(batch, reference, cfg)
        assert out.value >= 0.0
        assert_matches_index_lists(out, *index_list_loss(batch, reference, cfg))
        # no pair at all: the value is a plain 0.0, never -0.0
        inside = TrainConfig(pos_margin=0.3, neg_margin=0.7)
        assert json.dumps(contrastive_loss(batch, reference, inside).value) == "0.0"

    def test_non_finite_distance_makes_the_value_non_finite(self):
        # a finite but huge reference row overflows its distances to -inf
        batch = unit_batch(4, 3, seed=7)
        batch = EmbeddingBatch(vectors=np.abs(batch.vectors), labels=batch.labels)
        front = EmbeddingBatch(vectors=np.full((1, 3), 1.5e308), labels=batch.labels[:1])
        reference = concat(front, batch)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isneginf(mine_pairs(batch, reference, CFG).distances[:, 0]).all()
            assert not np.isfinite(contrastive_loss(batch, reference, CFG).value)

    def test_grad_matches_finite_differences(self):
        batch = unit_batch(8, 4, seed=11)
        bank_rows = unit_batch(6, 4, seed=12)

        def loss_at(vectors):
            b = EmbeddingBatch(vectors=vectors, labels=batch.labels)
            ref = EmbeddingBatch(
                vectors=np.concatenate([bank_rows.vectors, vectors]),
                labels=np.concatenate([bank_rows.labels, batch.labels]),
            )
            return contrastive_loss(b, ref, CFG).value

        ref = EmbeddingBatch(
            vectors=np.concatenate([bank_rows.vectors, batch.vectors]),
            labels=np.concatenate([bank_rows.labels, batch.labels]),
        )
        out = contrastive_loss(batch, ref, CFG)
        fd = batch_grad_fd(loss_at, batch.vectors)
        np.testing.assert_allclose(out.grad, fd, rtol=1e-4, atol=1e-8)


def concat(*batches):
    return EmbeddingBatch(
        vectors=np.concatenate([b.vectors for b in batches]),
        labels=np.concatenate([b.labels for b in batches]),
    )


def index_list_loss(batch, reference, cfg=CFG):
    return index_list_contrastive(
        batch.vectors, batch.labels, reference.vectors, reference.labels,
        cfg.pos_margin, cfg.neg_margin, reference.n - batch.n,
    )


def assert_matches_index_lists(out, value, grad):
    # the loss reads its value off the gradient's weights, so its summation
    # order differs from the oracle's per-list means; the gradient does not
    assert abs(out.value - value) <= 1e-12
    assert out.grad.shape == grad.shape
    assert (out.grad == grad).all()
    assert out.grad.tobytes() == grad.tobytes()


class TestMaskLossMatchesIndexLists:
    """The mask form of the loss reproduces the index-list form.

    The gradient is byte-equal. The value is taken as one dot product of the
    gradient's weights with the distances, where the oracle sums each pair
    list on its own, so it agrees to 1e-12 rather than bit for bit.
    """

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("variant", ["no-xbm", "xbm", "xbm-star"])
    def test_xbm_variants(self, seed, variant):
        batch = unit_batch(8, 5, seed=seed)
        bank = MemoryBank(capacity=12, dim=5)
        bank.enqueue(unit_batch(12, 5, seed=seed + 100))
        out = xbm_loss(batch, bank, CFG, variant)
        parts = []
        if variant in ("no-xbm", "xbm-star"):
            parts.append(index_list_loss(batch, batch))
        if variant in ("xbm", "xbm-star"):
            parts.append(index_list_loss(batch, concat(EmbeddingBatch(bank.vectors, bank.labels), batch)))
        value, grad = parts[0]
        if len(parts) == 2:
            value, grad = value + parts[1][0], grad + parts[1][1]
        assert_matches_index_lists(out, value, grad)

    @pytest.mark.parametrize("where", ["alone", "after_bank", "after_its_copy"])
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_after_other_rows(self, where, seed):
        batch = unit_batch(6, 4, seed=seed)
        extra = unit_batch(9, 4, seed=seed + 40)
        reference = {
            "alone": batch,
            "after_bank": concat(extra, batch),
            # value copies of the batch rows ahead of it are ordinary candidates
            "after_its_copy": concat(batch, extra, batch),
        }[where]
        out = contrastive_loss(batch, reference, CFG)
        assert_matches_index_lists(out, *index_list_loss(batch, reference))

    def test_distances_exactly_on_the_margins(self):
        # dyadic margins and coordinates make 1 - <a, b> exact, so two pairs
        # sit exactly on a margin and must not be mined
        cfg = TrainConfig(pos_margin=0.25, neg_margin=0.75)
        vectors = np.array([
            [1.0, 0.0, 0.0],
            [0.75, np.sqrt(1 - 0.75**2), 0.0],  # same class, d = pos_margin
            [0.25, 0.0, np.sqrt(1 - 0.25**2)],  # other class, d = neg_margin
            [0.0, 1.0, 0.0],  # same class, d = 1: positive
            [0.5, 0.0, np.sqrt(0.75)],  # other class, d = 0.5: negative
        ])
        batch = EmbeddingBatch(vectors=vectors, labels=np.array([0, 0, 1, 0, 1]))
        pairs = mine_pairs(batch, batch, cfg)
        assert pairs.distances[0, 1] == cfg.pos_margin
        assert pairs.distances[0, 2] == cfg.neg_margin
        assert not pairs.pos_mask[0, 1] and not pairs.neg_mask[0, 2]
        assert pairs.pos_mask[0, 3] and pairs.neg_mask[0, 4]
        out = contrastive_loss(batch, batch, cfg)
        assert_matches_index_lists(out, *index_list_loss(batch, batch, cfg))

    def test_empty_bank(self):
        batch = unit_batch(7, 4, seed=60)
        bank = MemoryBank(capacity=10, dim=4)
        out = xbm_loss(batch, bank, CFG, "xbm")
        assert_matches_index_lists(out, *index_list_loss(batch, batch))

    def test_negatives_only(self):
        batch = unit_batch(6, 4, seed=61, n_classes=1)
        batch = EmbeddingBatch(vectors=batch.vectors, labels=np.arange(6))  # all distinct
        out = contrastive_loss(batch, batch, CFG)
        value, grad = index_list_loss(batch, batch)
        assert value > 0.0
        assert_matches_index_lists(out, value, grad)

    def test_positives_only(self):
        batch = unit_batch(6, 4, seed=62, n_classes=1)
        out = contrastive_loss(batch, batch, CFG)
        value, grad = index_list_loss(batch, batch)
        assert value > 0.0
        assert_matches_index_lists(out, value, grad)


class TestMinedPairsContract:
    def test_index_views_are_row_major(self):
        batch = unit_batch(6, 4, seed=70)
        pairs = mine_pairs(batch, batch, CFG)
        for idx, mask in ((pairs.positives, pairs.pos_mask), (pairs.negatives, pairs.neg_mask)):
            assert len(idx) == mask.sum()
            assert [tuple(p) for p in idx] == sorted(map(tuple, idx))
            assert mask[idx[:, 0], idx[:, 1]].all()

    @pytest.mark.parametrize("front", [
        "none",  # the batch is the reference
        "other_rows",  # the batch follows five other rows
        "copy",  # the batch follows a value copy of itself
    ])
    def test_only_the_positional_self_pair_is_excluded(self, front):
        # rows of norm 1/2 sit 0.75 from themselves, so an unexcluded self-pair
        # would be mined as a positive
        rng = np.random.default_rng(74)
        vectors = 0.5 * unit_rows(6, 3, seed=74)
        labels = rng.integers(0, 2, size=6)
        batch = EmbeddingBatch(vectors=vectors, labels=labels)
        front_rows, front_labels = {
            "none": (vectors[:0], labels[:0]),
            "other_rows": (0.5 * unit_rows(5, 3, seed=75), rng.integers(0, 2, size=5)),
            "copy": (vectors, labels),
        }[front]
        reference = EmbeddingBatch(
            vectors=np.concatenate([front_rows, vectors]),
            labels=np.concatenate([front_labels, labels]),
        )
        pairs = mine_pairs(batch, reference, CFG)
        want_pos, want_neg = brute_force_pairs(
            vectors, labels, reference.vectors, reference.labels,
            CFG.pos_margin, CFG.neg_margin, len(front_rows),
        )
        if front == "copy":
            # each batch row pairs with its copy ahead of it, but not with itself
            assert all((i, i) in want_pos for i in range(batch.n))
        assert [tuple(p) for p in pairs.positives] == want_pos
        assert [tuple(p) for p in pairs.negatives] == want_neg

    @pytest.mark.parametrize("loss", [
        lambda b, r: mine_pairs(b, r, CFG),
        lambda b, r: contrastive_loss(b, r, CFG),
        lambda b, r: triplet_loss(b, r, margin=0.1),
    ], ids=["mine_pairs", "contrastive_loss", "triplet_loss"])
    def test_reference_shorter_than_the_batch_rejected(self, loss):
        # the batch must be the reference's tail, so the reference holds it all
        batch = unit_batch(6, 3, seed=71)
        with pytest.raises(ShapeMismatch):
            loss(batch, EmbeddingBatch(vectors=batch.vectors[1:], labels=batch.labels[1:]))


class TestDistanceMatrixCalls:
    @pytest.mark.parametrize("variant,calls", [("no-xbm", 1), ("xbm", 1), ("xbm-star", 2)])
    def test_one_matrix_per_reference_set(self, monkeypatch, variant, calls):
        count = []
        real = losses.distance_matrix

        def counting(*args):
            count.append(1)
            return real(*args)

        monkeypatch.setattr(losses, "distance_matrix", counting)
        batch = unit_batch(6, 4, seed=80)
        bank = MemoryBank(capacity=8, dim=4)
        bank.enqueue(unit_batch(8, 4, seed=81))
        xbm_loss(batch, bank, CFG, variant)
        assert len(count) == calls


class TestTripletLoss:
    def test_inactive_hinge(self):
        # anchor == positive, negative antipodal: d(a,p)=0, d(a,n)=2, margin 0.05;
        # the anchor itself is the reference's last row
        a = np.array([1.0, 0.0])
        batch = EmbeddingBatch(vectors=a[None, :], labels=np.array([0]))
        reference = EmbeddingBatch(
            vectors=np.stack([a, -a, a]), labels=np.array([0, 1, 0])
        )
        out = triplet_loss(batch, reference, margin=0.05)
        assert out.value == 0.0

    def test_hand_value(self):
        # d(a,p) = 1.0, d(a,n) = 0.8, margin 0.05 -> hinge 0.25
        a = np.array([1.0, 0.0])
        p = np.array([0.0, 1.0])  # d = 1.0
        n = np.array([0.2, np.sqrt(1 - 0.04)])  # <a,n> = 0.2 -> d = 0.8
        batch = EmbeddingBatch(vectors=a[None, :], labels=np.array([0]))
        reference = EmbeddingBatch(vectors=np.stack([p, n, a]), labels=np.array([0, 1, 0]))
        out = triplet_loss(batch, reference, margin=0.05)
        assert out.value == pytest.approx(0.25, abs=1e-12)

    def test_negative_margin_rejected(self):
        batch = unit_batch(2, 3, seed=0)
        with pytest.raises(InvalidConfig):
            triplet_loss(batch, batch, margin=-0.1)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        batch = unit_batch(6, 3, seed=seed, n_classes=2)
        out = triplet_loss(batch, batch, margin=0.1)
        want = brute_force_triplet(
            batch.vectors.tolist(), batch.labels.tolist(),
            batch.vectors.tolist(), batch.labels.tolist(),
            0.1, 0,
        )
        assert out.value == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_grad_matches_finite_differences(self):
        batch = unit_batch(5, 3, seed=21, n_classes=2)
        bank_rows = unit_batch(4, 3, seed=22, n_classes=2)

        def loss_at(vectors):
            b = EmbeddingBatch(vectors=vectors, labels=batch.labels)
            ref = EmbeddingBatch(
                vectors=np.concatenate([bank_rows.vectors, vectors]),
                labels=np.concatenate([bank_rows.labels, batch.labels]),
            )
            return triplet_loss(b, ref, margin=0.1).value

        ref = EmbeddingBatch(
            vectors=np.concatenate([bank_rows.vectors, batch.vectors]),
            labels=np.concatenate([bank_rows.labels, batch.labels]),
        )
        out = triplet_loss(batch, ref, margin=0.1)
        fd = batch_grad_fd(loss_at, batch.vectors)
        np.testing.assert_allclose(out.grad, fd, rtol=1e-4, atol=1e-8)


class TestXbmLoss:
    def test_empty_bank_equals_minibatch_only(self):
        batch = unit_batch(6, 4, seed=30)
        bank = MemoryBank(capacity=8, dim=4)
        a = xbm_loss(batch, bank, CFG, "xbm")
        b = xbm_loss(batch, bank, CFG, "no-xbm")
        assert a.value == b.value
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_star_is_sum(self):
        batch = unit_batch(6, 4, seed=31)
        bank = MemoryBank(capacity=8, dim=4)
        bank.enqueue(unit_batch(8, 4, seed=32))
        star = xbm_loss(batch, bank, CFG, "xbm-star")
        parts = xbm_loss(batch, bank, CFG, "no-xbm") + xbm_loss(batch, bank, CFG, "xbm")
        assert star.value == parts.value
        np.testing.assert_array_equal(star.grad, parts.grad)

    def test_unknown_variant(self):
        batch = unit_batch(2, 3, seed=33)
        bank = MemoryBank(capacity=4, dim=3)
        with pytest.raises(InvalidConfig):
            xbm_loss(batch, bank, CFG, "xbm2")

    @pytest.mark.parametrize("variant", ["no-xbm", "xbm", "xbm-star"])
    def test_grad_matches_finite_differences(self, variant):
        batch = unit_batch(6, 4, seed=34)
        bank = MemoryBank(capacity=8, dim=4)
        bank.enqueue(unit_batch(7, 4, seed=35))

        def loss_at(vectors):
            b = EmbeddingBatch(vectors=vectors, labels=batch.labels)
            return xbm_loss(b, bank, CFG, variant).value

        out = xbm_loss(batch, bank, CFG, variant)
        fd = batch_grad_fd(loss_at, batch.vectors)
        np.testing.assert_allclose(out.grad, fd, rtol=1e-4, atol=1e-8)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=10),
    with_bank=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_property_loss_nonnegative(seed, n, with_bank):
    batch = unit_batch(n, 4, seed=seed)
    bank = MemoryBank(capacity=16, dim=4)
    if with_bank:
        bank.enqueue(unit_batch(6, 4, seed=seed + 1))
    for variant in ("no-xbm", "xbm", "xbm-star"):
        assert xbm_loss(batch, bank, CFG, variant).value >= 0.0


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_property_reference_permutation_invariance(seed):
    # shuffling the reference rows ahead of the batch (with their labels)
    # changes neither value nor gradient
    rng = np.random.default_rng(seed)
    batch = unit_batch(4, 3, seed=seed)
    front = unit_batch(7, 3, seed=seed + 9)
    perm = rng.permutation(7)
    shuffled = EmbeddingBatch(vectors=front.vectors[perm], labels=front.labels[perm])
    base = contrastive_loss(batch, concat(front, batch), CFG)
    other = contrastive_loss(batch, concat(shuffled, batch), CFG)
    assert base.value == pytest.approx(other.value, rel=1e-12, abs=1e-15)
    np.testing.assert_allclose(base.grad, other.grad, atol=1e-12)
