import itertools
import sys
import threading
import time
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

    def test_no_queries(self):
        empty = EmbeddingBatch(vectors=np.empty((0, 4)), labels=np.empty(0, dtype=np.int64))
        with pytest.raises(InvalidConfig, match="no queries to evaluate"):
            recall_at_k(empty, batch(6, 4, seed=0), (1,))

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


def pin_chunk_budget(monkeypatch, budget):
    """Chunks of budget bytes on the calling thread, whatever the BLAS thread setting: a call
    over budget that would go in tiles gets tiles of the same size, one at a time."""
    monkeypatch.setattr(retrieval, "_CHUNK_BYTES", budget)
    monkeypatch.setattr(retrieval, "_TILE_BYTES", budget)


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
        # the budget holds rows x (a similarity row plus the most positives a
        # query gathers), so every chunk but the last has exactly rows rows
        most = max(np.count_nonzero(g.labels == label) for label in q.labels)
        budget = rows * (8 * g.n + retrieval._GATHER_BYTES * most)
        pin_chunk_budget(monkeypatch, budget)
        sizes = []
        real = retrieval._best_positives

        def recording(block, *args):
            sizes.append(len(block))
            return real(block, *args)

        monkeypatch.setattr(retrieval, "_best_positives", recording)
        chunked = recall_at_k(q, g, ks)
        assert sizes[:-1] == [rows] * (len(sizes) - 1) and 0 < sizes[-1] <= rows
        assert sum(sizes) == q.n
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
    def test_peak_memory_within_the_chunk_budget(self, monkeypatch, n_classes):
        # similarities plus the positives gathered for rows whose top candidate
        # is a negative stay inside the one budget; a one-class gallery gives
        # every query 4000 positive columns, two classes make half the rows miss
        peak, threads = self.peak_at_4000_squared(monkeypatch, n_classes, blas_threads="2")
        assert peak < 1.5 * retrieval._CHUNK_BYTES
        assert len(threads) == 1

    @pytest.mark.parametrize("n_classes", [400, 2, 1])
    def test_peak_memory_within_the_chunk_budget_on_threads(self, monkeypatch, n_classes):
        # the same in tiles, on as many threads as the budget holds tiles
        peak, threads = self.peak_at_4000_squared(monkeypatch, n_classes, blas_threads="1")
        assert peak < 1.5 * retrieval._CHUNK_BYTES
        assert len(threads) > 1

    @staticmethod
    def peak_at_4000_squared(monkeypatch, n_classes, blas_threads):
        """tracemalloc's peak over one 4000 x 4000 call on 64 CPUs, and the threads that ran."""
        monkeypatch.setattr(retrieval, "available_cpus", lambda: 64)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        q = batch(4000, 16, seed=0, n_classes=n_classes)
        g = batch(4000, 16, seed=1, n_classes=n_classes)
        threads = record_tile_threads(monkeypatch)
        tracemalloc.start()
        try:
            recall_at_k(q, g, (1, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, threads


def assert_matches_oracle(q, g, ks):
    single = g is q
    expected = naive_recall(q.vectors, q.labels, g.vectors, g.labels, ks, exclude_self=single)
    assert recall_at_k(q, g, ks) == expected
    return expected


# Missed rows are ranked either in groups of rows gathered under _GROUP_BYTES
# (galleries up to _GROUP_WIDTH columns) or one row at a time; these force each
# path whatever the gallery's width, with groups of one row and groups at least
# as large as any chunk.
RANK_PATHS = {
    "loop": {"_GROUP_WIDTH": 0},
    "one-row-groups": {"_GROUP_WIDTH": 10**9, "_GROUP_BYTES": 1},
    "whole-chunk-groups": {"_GROUP_WIDTH": 10**9, "_GROUP_BYTES": retrieval._CHUNK_BYTES},
}


def force_rank_path(monkeypatch, path):
    for name, value in RANK_PATHS[path].items():
        monkeypatch.setattr(retrieval, name, value)


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
        pin_chunk_budget(monkeypatch, budget)
        out = assert_matches_oracle(q, g, (1, 2, 5, 10))
        assert (out[1] > 0.9) if mostly == "hit" else (out[1] < 0.5)


class TestEdgeCasesOnForcedRankPaths(TestEdgeCases):
    """Every edge case again, with the misses ranked by the row loop or in one-row groups
    (the small galleries above take whole-chunk groups by default)."""

    @pytest.fixture(autouse=True, params=["loop", "one-row-groups"])
    def rank_path(self, request, monkeypatch):
        force_rank_path(monkeypatch, request.param)


@pytest.mark.parametrize("path", sorted(RANK_PATHS))
@pytest.mark.parametrize("single", [True, False])
@pytest.mark.parametrize("tied,rank", [((), 1), ((1,), 2), ((3,), 1), ((1, 3), 2)])
def test_negative_tied_with_the_best_positive(monkeypatch, path, single, tied, rank):
    # column 0 is a negative ahead of everything and the best positive sits at
    # column 2; a negative equal to it at column 1 counts toward its rank, one
    # at column 3 does not
    force_rank_path(monkeypatch, path)
    sims = [1.0] + [0.5 if c in tied else 0.25 for c in (1, 3)]
    vectors = np.array([[sims[0], 0.0], [sims[1], 0.0], [0.5, 0.0], [sims[2], 0.0], [-1.0, 0.0]])
    g = EmbeddingBatch(vectors=vectors, labels=np.array([9, 9, 7, 9, 9]))
    if single:  # the query joins the set as its last row
        q = g = EmbeddingBatch(
            vectors=np.vstack([vectors, [[1.0, 0.0]]]), labels=np.array([9, 9, 7, 9, 9, 7])
        )
        assert_matches_oracle(q, g, (1, 2, 3))
        return
    out = assert_matches_oracle(TestEdgeCases.Q, g, (1, 2, 3))
    assert out == {1: 0.0, 2: float(rank < 2), 3: 1.0}


@pytest.mark.parametrize("path", sorted(RANK_PATHS))
@pytest.mark.parametrize("chunk_rows", [1, 3, None])
def test_rank_paths_exact_on_ties(monkeypatch, path, chunk_rows):
    # tie-heavy inputs in both protocols: each path, cut into chunks of 1 or 3
    # query rows or left whole, gives exactly the recall of a full sort
    force_rank_path(monkeypatch, path)
    rng = np.random.default_rng(1301)
    for _ in range(40):
        dim, n_classes = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        q = quarter_grid_batch(rng, int(rng.integers(3, 30)), dim, n_classes)
        for g in (q, quarter_grid_batch(rng, int(rng.integers(2, 30)), dim, n_classes)):
            ks = tuple(range(1, min(g.n - (g is q), 12)))
            if not ks:
                continue
            if chunk_rows is not None:
                pin_chunk_budget(monkeypatch, chunk_rows * 8 * g.n)
            assert_matches_oracle(q, g, ks)


def record_tile_threads(monkeypatch):
    """The set of threads that rank tiles in the calls that follow."""
    seen = set()
    real = retrieval._best_positives

    def recording(*args):
        seen.add(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(retrieval, "_best_positives", recording)
    return seen


class TestTiles:
    """Calls over the chunk budget where BLAS runs each gemm on one CPU: tiles on threads."""

    ROW = 8 * 100 + retrieval._GATHER_BYTES * 10  # a 100-column gallery, 10 positives at most

    @pytest.mark.parametrize(
        "env,cpus,tiled",
        [
            ({}, 2, False),  # BLAS takes every CPU
            ({}, 1, True),
            ({"OPENBLAS_NUM_THREADS": "1"}, 4, True),
            ({"OPENBLAS_NUM_THREADS": "2"}, 4, False),
            ({"OMP_NUM_THREADS": "1"}, 4, True),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, False),  # OpenBLAS's order
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, True),  # 0 is unset
            ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 4, False),
            ({"OPENBLAS_NUM_THREADS": "4"}, 1, True),  # at most one BLAS thread per CPU
        ],
    )
    def test_tiles_where_blas_runs_one_thread(self, monkeypatch, env, cpus, tiled):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(retrieval, "available_cpus", lambda: cpus)
        chunk_rows = retrieval._CHUNK_BYTES // self.ROW
        # within the budget: one chunk on the calling thread, tiled or not
        assert retrieval._tiles(chunk_rows, self.ROW) == (chunk_rows, 1)
        tile_rows = retrieval._TILE_BYTES // self.ROW
        expected = (tile_rows, cpus) if tiled else (chunk_rows, 1)
        assert retrieval._tiles(chunk_rows + 1, self.ROW) == expected

    def test_threads_capped_by_the_chunk_budget(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(retrieval, "available_cpus", lambda: 64)
        step, workers = retrieval._tiles(10**6, self.ROW)
        assert workers == retrieval._CHUNK_BYTES // (step * self.ROW) == 8
        # a row wider than a tile is a tile of its own
        row = retrieval._TILE_BYTES + 1
        assert retrieval._tiles(10**6, row) == (1, retrieval._CHUNK_BYTES // row)

    def test_available_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(retrieval.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(retrieval.os, "cpu_count", lambda: 8)
        assert retrieval.available_cpus() == 1
        monkeypatch.delattr(retrieval.os, "sched_getaffinity", raising=False)
        assert retrieval.available_cpus() == 8
        monkeypatch.setattr(retrieval.os, "cpu_count", lambda: None)
        assert retrieval.available_cpus() == 1

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_tiles_on_threads_match_one_chunk_and_the_oracle(self, monkeypatch, rows):
        # three threads on tiles of a few rows: random and tie-heavy sets in both
        # protocols, one-class galleries, row counts off the tile size, and sets
        # of fewer tiles than threads
        rng = np.random.default_rng(2300 + rows)
        cases = []  # (queries, gallery, every k the gallery allows), with one k at least
        for _ in range(30):
            n, m = int(rng.integers(2, 40)), int(rng.integers(2, 40))
            dim, n_classes = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            if rng.random() < 0.5:
                q, g = quarter_grid_batch(rng, n, dim, n_classes), quarter_grid_batch(
                    rng, m, dim, n_classes)
            else:
                seed = int(rng.integers(10**6))
                q, g = batch(n, dim, seed, n_classes), batch(m, dim, seed + 1, n_classes)
            for gallery in (g, q):
                effective = gallery.n - (gallery is q)
                if effective > 1:
                    cases.append((q, gallery, tuple(range(1, effective))))
        serial = [recall_at_k(q, g, ks) for q, g, ks in cases]
        monkeypatch.setattr(retrieval, "_tiles", lambda n, row_bytes: (rows, 3))
        threads = record_tile_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter at every chance
        try:
            tiled = [recall_at_k(q, g, ks) for q, g, ks in cases]
        finally:
            sys.setswitchinterval(interval)
        assert tiled == serial
        assert tiled == [naive_recall(q.vectors, q.labels, g.vectors, g.labels, ks,
                                      exclude_self=g is q) for q, g, ks in cases]
        assert len(threads) >= 3  # the caller and two threads per call; idents may recur

    def test_an_exception_in_a_tile_stops_every_thread_and_reaches_the_caller(self, monkeypatch):
        q = batch(300, 4, seed=5, n_classes=3)
        monkeypatch.setattr(retrieval, "_tiles", lambda n, row_bytes: (2, 3))  # 150 tiles
        real = retrieval._best_positives
        calls, after = itertools.count(), []

        def failing(*args):
            call = next(calls)
            if call == 10:
                raise RuntimeError("tile failed")
            if call > 10:
                time.sleep(0.01)  # time for the failure to be recorded
                after.append(call)
            return real(*args)

        monkeypatch.setattr(retrieval, "_best_positives", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="tile failed"):
            recall_at_k(q, q, (1, 5))
        assert threading.active_count() == before
        # each other thread finishes at most the tile it was ranking
        assert len(after) <= 2

    def test_a_desk_validation_starts_no_thread(self, monkeypatch):
        # 800 x 800 single-set similarities are about 5 MB, within the budget:
        # one chunk on the calling thread, even where tiles would go on 64 threads
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(retrieval, "available_cpus", lambda: 64)

        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        b = batch(800, 16, seed=9, n_classes=40)
        recall_at_k(b, b, (1, 10))
