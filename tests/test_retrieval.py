import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbatch import (
    DimensionMismatch,
    EmbeddingBatch,
    InvalidConfig,
    recall_at_k,
    retrieval,
)
from oracles import naive_recall


def unit_rows(n, dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def batch(n, dim, seed, n_classes=5):
    rng = np.random.default_rng(seed + 1000)
    return EmbeddingBatch(
        vectors=unit_rows(n, dim, seed),
        labels=rng.integers(0, n_classes, size=n),
    )


class TestProtocolValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_values": ()},
            {"k_values": (0,)},
            {"k_values": (5, 1)},  # not ascending
        ],
    )
    def test_invalid(self, kwargs):
        b = batch(12, 4, seed=0)
        with pytest.raises(InvalidConfig, match="k values must be >= 1 and ascending"):
            recall_at_k(b, b, **kwargs)

    @pytest.mark.parametrize(
        "k_values,why",
        [
            ((2.0,), "not all integers"),
            ((1, 2.5), "not all integers"),
            ((1, 1), "not strictly ascending"),
            ((1, 3, 3), "not strictly ascending"),
        ],
    )
    def test_non_integral_or_repeated_k(self, k_values, why):
        b = batch(12, 4, seed=0)
        with pytest.raises(InvalidConfig, match=f"k values must be >= 1 and ascending.*{why}"):
            recall_at_k(b, b, k_values)

    def test_integer_like_k_accepted(self):
        b = batch(12, 4, seed=0)
        out = recall_at_k(b, b, [np.int64(1), np.int32(3)])
        assert out == recall_at_k(b, b, (1, 3))
        assert all(type(k) is int for k in out)

    def test_k_must_fit_gallery(self):
        b = batch(6, 4, seed=0)
        with pytest.raises(InvalidConfig):
            recall_at_k(b, b, (5,))
        g = batch(6, 4, seed=1)
        with pytest.raises(InvalidConfig):
            recall_at_k(b, g, (6,))
        # largest legal k is fine
        recall_at_k(b, b, (4,))
        recall_at_k(b, g, (5,))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            recall_at_k(batch(4, 3, seed=0), batch(4, 5, seed=1), (1,))

    def test_self_exclusion_follows_identity(self):
        # an equal copy is a separate gallery: the query's own row counts
        b = batch(6, 4, seed=0)
        copy = EmbeddingBatch(vectors=b.vectors.copy(), labels=b.labels.copy())
        assert recall_at_k(b, copy, (1,)) == {1: 1.0}


class TestHandCases:
    def test_exact_duplicate_in_gallery_gives_r1(self):
        q = EmbeddingBatch(
            vectors=np.array([[1.0, 0.0], [0.0, 1.0]]), labels=np.array([0, 1])
        )
        g = EmbeddingBatch(
            vectors=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
            labels=np.array([0, 1, 2]),
        )
        out = recall_at_k(q, g, (1, 2))
        assert out == {1: 1.0, 2: 1.0}

    def test_unique_label_never_recalled_in_single_mode(self):
        # self is excluded, and nothing else shares the label
        vs = unit_rows(5, 3, seed=3)
        b = EmbeddingBatch(vectors=vs, labels=np.array([0, 1, 2, 3, 4]))
        out = recall_at_k(b, b, (1, 3))
        assert out == {1: 0.0, 3: 0.0}

    def test_self_excluded_in_single_mode(self):
        # two identical vectors with different labels: without exclusion each
        # would retrieve itself at rank 1 and score a hit
        vs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = EmbeddingBatch(vectors=vs, labels=np.array([0, 1, 2]))
        out = recall_at_k(b, b, (1,))
        assert out == {1: 0.0}

    def test_ties_broken_by_lower_gallery_index(self):
        q = EmbeddingBatch(vectors=np.array([[1.0, 0.0]]), labels=np.array([7]))
        g = EmbeddingBatch(
            vectors=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            labels=np.array([9, 7, 7]),
        )
        # both gallery rows 0 and 1 have similarity 1; row 0 (label 9) wins the tie
        out = recall_at_k(q, g, (1, 2))
        assert out == {1: 0.0, 2: 1.0}

    def test_monotone_in_k(self):
        b = batch(40, 6, seed=4)
        out = recall_at_k(b, b, (1, 2, 4, 8, 16))
        values = [out[k] for k in (1, 2, 4, 8, 16)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_single_mode(self, seed):
        b = batch(50, 5, seed=seed, n_classes=7)
        out = recall_at_k(b, b, (1, 3, 10))
        expected = naive_recall(
            b.vectors, b.labels, b.vectors, b.labels, (1, 3, 10), exclude_self=True
        )
        assert out == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_query_gallery_mode(self, seed):
        q = batch(30, 5, seed=seed, n_classes=7)
        g = batch(45, 5, seed=seed + 100, n_classes=7)
        out = recall_at_k(q, g, (1, 3, 10))
        expected = naive_recall(
            q.vectors, q.labels, g.vectors, g.labels, (1, 3, 10), exclude_self=False
        )
        assert out == expected


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 40),
    perm_seed=st.integers(0, 10_000),
)
def test_property_gallery_permutation_invariance(seed, n, perm_seed):
    # random unit vectors are almost surely tie-free, so recall must not
    # depend on gallery row order
    q = batch(10, 4, seed=seed, n_classes=4)
    g = batch(n, 4, seed=seed + 1, n_classes=4)
    perm = np.random.default_rng(perm_seed).permutation(n)
    g_perm = EmbeddingBatch(vectors=g.vectors[perm], labels=g.labels[perm])
    assert recall_at_k(q, g, (1, 3)) == recall_at_k(q, g_perm, (1, 3))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(12, 60))
def test_property_recall_monotone_and_bounded(seed, n):
    b = batch(n, 4, seed=seed, n_classes=3)
    ks = (1, 2, min(8, n - 2))
    ks = tuple(sorted(set(ks)))
    out = recall_at_k(b, b, ks)
    values = [out[k] for k in ks]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a <= b for a, b in zip(values, values[1:]))


def quarter_grid_batch(rng, n, dim, n_classes):
    """Coordinates on multiples of 1/4 in [-1, 1]: every dot product is exact
    in float64 whatever the summation order, so equal similarities are real
    ties, the same for BLAS and for the oracle's Python sums."""
    return EmbeddingBatch(
        vectors=rng.integers(-4, 5, size=(n, dim)) / 4.0,
        labels=rng.integers(0, n_classes, size=n),
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    m=st.integers(2, 40),
    dim=st.integers(1, 3),
    n_classes=st.integers(1, 4),
)
def test_property_exact_on_ties(seed, n, m, dim, n_classes):
    # tie-heavy inputs: the count of candidates ahead of the best positive must
    # give exactly the recall of a full (similarity desc, index asc) sort
    rng = np.random.default_rng(seed)
    q = quarter_grid_batch(rng, n, dim, n_classes)
    g = quarter_grid_batch(rng, m, dim, n_classes)
    for gallery, exclude_self in ((q, True), (g, False)):
        effective = gallery.n - 1 if exclude_self else gallery.n
        ks = tuple(range(1, effective))
        if not ks:
            continue
        expected = naive_recall(
            q.vectors, q.labels, gallery.vectors, gallery.labels, ks, exclude_self=exclude_self
        )
        assert recall_at_k(q, gallery, ks) == expected


class TestChunking:
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("single", [True, False])
    def test_chunk_edges_do_not_change_the_result(self, monkeypatch, rows, single):
        # single-set mode drops column lo + row of each chunk; chunks of 1 and
        # 3 rows put that offset on every side of a chunk edge
        rng = np.random.default_rng(17)
        q = quarter_grid_batch(rng, 23, 2, 3)
        g = q if single else quarter_grid_batch(rng, 19, 2, 3)
        ks = (1, 2, 5, 10)
        default = recall_at_k(q, g, ks)
        monkeypatch.setattr(retrieval, "_CHUNK_BYTES", rows * 8 * g.n)
        chunked = recall_at_k(q, g, ks)
        expected = naive_recall(q.vectors, q.labels, g.vectors, g.labels, ks, exclude_self=single)
        assert chunked == default == expected

    def test_peak_memory_below_half_a_similarity_matrix(self):
        # the full 4000 x 4000 float64 matrix is 122 MiB; recall holds only a
        # budget's worth of rows of it at a time
        q = batch(4000, 16, seed=0, n_classes=400)
        g = batch(4000, 16, seed=1, n_classes=400)
        tracemalloc.start()
        try:
            recall_at_k(q, g, (1, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 4000 * 8 / 2

    @pytest.mark.parametrize("n_classes", [400, 2, 1])
    def test_peak_memory_within_the_chunk_budget(self, n_classes):
        # similarities plus the positives gathered for rows whose top candidate
        # is a negative stay inside the one budget; a one-class gallery gives
        # every query 4000 positive columns, two classes make half the rows miss
        q = batch(4000, 16, seed=0, n_classes=n_classes)
        g = batch(4000, 16, seed=1, n_classes=n_classes)
        tracemalloc.start()
        try:
            recall_at_k(q, g, (1, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * retrieval._CHUNK_BYTES


def assert_matches_oracle(q, g, ks):
    single = g is q
    expected = naive_recall(q.vectors, q.labels, g.vectors, g.labels, ks, exclude_self=single)
    assert recall_at_k(q, g, ks) == expected
    return expected


class TestEdgeCases:
    """Hand-built rankings at the places where a hit is decided, each against the oracle."""

    Q = EmbeddingBatch(vectors=np.array([[1.0, 0.0]]), labels=np.array([7]))

    @pytest.mark.parametrize(
        "labels,expected",
        [
            ([9, 7, 9], {1: 0.0, 2: 1.0}),  # negative tied at the top, lower index
            ([7, 9, 9], {1: 1.0, 2: 1.0}),  # negative tied at the top, higher index
        ],
    )
    def test_best_positive_tied_at_the_top(self, labels, expected):
        g = EmbeddingBatch(
            vectors=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), labels=np.array(labels)
        )
        assert assert_matches_oracle(self.Q, g, (1, 2)) == expected

    @pytest.mark.parametrize(
        "labels,expected",
        [
            ([9, 9, 7, 9], {1: 0.0, 2: 0.0, 3: 1.0}),  # tie below the top, lower index
            ([9, 7, 9, 9], {1: 0.0, 2: 1.0, 3: 1.0}),  # tie below the top, higher index
        ],
    )
    def test_best_positive_tied_below_the_top(self, labels, expected):
        # row 0 is ahead of everything; rows 1 and 2 tie at 0.5
        g = EmbeddingBatch(
            vectors=np.array([[1.0, 0.0], [0.5, 0.5], [0.5, -0.5], [-1.0, 0.0]]),
            labels=np.array(labels),
        )
        assert assert_matches_oracle(self.Q, g, (1, 2, 3)) == expected

    @pytest.mark.parametrize(
        "ahead,tied,hit", [(4, 0, 1.0), (5, 0, 0.0), (3, 1, 1.0), (4, 1, 0.0)]
    )
    def test_best_positive_at_k_max_boundary(self, ahead, tied, hit):
        # `ahead` negatives strictly ahead of the only positive and `tied`
        # negatives equal to it at a lower index put it at rank ahead + tied,
        # k_max - 1 or k_max; the equal negative after it never counts
        sims = [1.0 - 0.125 * i for i in range(ahead)] + [0.25] * tied + [0.25, 0.25, -1.0]
        g = EmbeddingBatch(
            vectors=np.array([[s, 0.0] for s in sims]),
            labels=np.array([9] * (ahead + tied) + [7, 9, 9]),
        )
        out = assert_matches_oracle(self.Q, g, (1, 3, 5))
        assert out == {1: 0.0, 3: 0.0, 5: hit}

    def test_lowest_of_tied_positives_is_the_best(self):
        # positives at rows 1 and 3 tie with the negative at row 2: the best
        # positive is row 1, at rank 1 behind row 0
        g = EmbeddingBatch(
            vectors=np.array([[1.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [-1.0, 0.0]]),
            labels=np.array([9, 7, 9, 7, 9]),
        )
        assert assert_matches_oracle(self.Q, g, (1, 2, 3)) == {1: 0.0, 2: 1.0, 3: 1.0}

    @pytest.mark.parametrize("dup_label", [0, 1])
    def test_exact_duplicate_at_lower_index_in_single_mode(self, dup_label):
        # row 1 duplicates row 0 exactly: for query 1, row 0 ties with itself
        # at the top and has the lower index; a positive there is a hit, a
        # negative there pushes the best positive to rank 1
        b = EmbeddingBatch(
            vectors=np.array([[1.0, 0.0], [1.0, 0.0], [0.75, 0.25], [0.0, 1.0], [0.0, -1.0]]),
            labels=np.array([dup_label, 1, 1, 2, 2]),
        )
        assert_matches_oracle(b, b, (1, 2, 3))

    def test_query_label_absent_from_gallery(self):
        q = EmbeddingBatch(
            vectors=np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]), labels=np.array([0, 5, 1])
        )
        g = EmbeddingBatch(
            vectors=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), labels=np.array([0, 1, 2])
        )
        out = assert_matches_oracle(q, g, (1, 2))
        assert out[2] < 1.0  # the label-5 query never hits

    @pytest.mark.parametrize("budget", [1, 2048, retrieval._CHUNK_BYTES])
    @pytest.mark.parametrize("mostly", ["hit", "miss"])
    @pytest.mark.parametrize("single", [True, False])
    def test_chunk_budgets_when_most_rows_hit_or_miss(self, monkeypatch, budget, mostly, single):
        # tight clusters put almost every query's top candidate in its class;
        # labels drawn independently of the vectors put almost none there
        rng = np.random.default_rng(23)
        centers = rng.normal(size=(6, 4))
        labels = np.tile(np.arange(6), 10)  # five of each class per half
        vectors = rng.normal(size=(60, 4))
        if mostly == "hit":
            vectors = centers[labels] + 0.05 * vectors
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        q = EmbeddingBatch(vectors=vectors[:30], labels=labels[:30])
        g = q if single else EmbeddingBatch(vectors=vectors[30:], labels=labels[30:])
        monkeypatch.setattr(retrieval, "_CHUNK_BYTES", budget)
        out = assert_matches_oracle(q, g, (1, 2, 5, 10))
        assert (out[1] > 0.9) if mostly == "hit" else (out[1] < 0.5)
