"""Tests for adjacency construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoforecast.autodiff import Tensor, grad_check
from exoforecast import autodiff as ad
from exoforecast.graphs import (
    EMBED_DIM,
    Graph,
    adaptive_adjacency,
    adaptive_adjacency_directed,
    build_graph,
    pearson_correlation,
    pearson_topk_adjacency,
    row_normalize,
    with_self_loops,
)


def oracle_adaptive(e_src: np.ndarray, e_dst: np.ndarray) -> np.ndarray:
    """Scalar-loop re-evaluation of row-softmax(relu(E_s E_dᵀ))."""
    n = e_src.shape[0]
    scores = [[max(0.0, sum(e_src[i, d] * e_dst[j, d] for d in range(e_src.shape[1])))
               for j in range(n)] for i in range(n)]
    out = np.zeros((n, n))
    for i in range(n):
        m = max(scores[i])
        exps = [math.exp(s - m) for s in scores[i]]
        z = sum(exps)
        out[i] = [e / z for e in exps]
    return out


def oracle_topk(series: np.ndarray, k: int) -> np.ndarray:
    """Per-node sorted loop: each node's k largest off-diagonal correlations,
    lower node index first on ties."""
    n = series.shape[0]
    corr = pearson_correlation(series)
    adj = np.zeros((n, n))
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (-corr[i, j], j))
        for j in order[:k]:
            adj[i, j] = corr[i, j]
    return adj


@st.composite
def tied_series(draw):
    """(N, T) series whose rows repeat, rescale or negate a few small-integer
    rows, so correlations tie exactly and constant rows are common."""
    t = draw(st.integers(min_value=2, max_value=8))
    pool = draw(st.lists(st.lists(st.integers(-2, 2), min_size=t, max_size=t),
                         min_size=1, max_size=3))
    rows = draw(st.lists(st.tuples(st.sampled_from(pool),
                                   st.sampled_from([1.0, 2.0, -1.0, -0.5])),
                         min_size=1, max_size=7))
    return np.array([[scale * v for v in row] for row, scale in rows])


class TestAdaptive:
    def test_zero_embeddings_uniform(self):
        adj = adaptive_adjacency(Tensor(np.zeros((3, 4))))
        np.testing.assert_allclose(adj.values, np.full((3, 3), 1 / 3))

    def test_single_node(self):
        adj = adaptive_adjacency(Tensor(np.zeros((1, 2))))
        np.testing.assert_array_equal(adj.values, [[1.0]])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_direct_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(4, 3))
        adj = adaptive_adjacency(Tensor(emb))
        np.testing.assert_allclose(adj.values, oracle_adaptive(emb, emb), atol=1e-9)
        np.testing.assert_allclose(adj.values.sum(axis=1), np.ones(4), atol=1e-9)

    def test_gradcheck(self):
        emb = Tensor(np.random.default_rng(5).normal(size=(3, 2)))
        err = grad_check(lambda: ad.reduce_sum(
            ad.tanh(adaptive_adjacency(emb) * 3.0)), emb)
        assert err < 1e-4


class TestAdaptiveDirected:
    def test_reduces_to_symmetric_form(self):
        emb = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        a = adaptive_adjacency_directed(emb, emb)
        b = adaptive_adjacency(emb)
        np.testing.assert_array_equal(a.values, b.values)

    def test_zero_targets_uniform(self):
        src = Tensor(np.random.default_rng(1).normal(size=(3, 2)))
        adj = adaptive_adjacency_directed(src, Tensor(np.zeros((3, 2))))
        np.testing.assert_allclose(adj.values, np.full((3, 3), 1 / 3))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_direct_evaluation(self, seed):
        rng = np.random.default_rng(100 + seed)
        src, dst = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        adj = adaptive_adjacency_directed(Tensor(src), Tensor(dst))
        np.testing.assert_allclose(adj.values, oracle_adaptive(src, dst), atol=1e-9)

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        src = Tensor(rng.normal(size=(3, 2)))
        dst = Tensor(rng.normal(size=(3, 2)))
        err = grad_check(lambda: ad.reduce_sum(
            ad.sigmoid(adaptive_adjacency_directed(src, dst))), [src, dst])
        assert err < 1e-4


class TestPearsonTopK:
    def test_identical_series(self):
        t = np.linspace(0, 1, 10)
        series = np.stack([t, t.copy()])
        adj = pearson_topk_adjacency(series, k=1)
        np.testing.assert_allclose(adj, [[0, 1], [1, 0]], atol=1e-12)

    def test_negated_series(self):
        t = np.linspace(0, 1, 10)
        adj = pearson_topk_adjacency(np.stack([t, -t]), k=1)
        np.testing.assert_allclose(adj, [[0, -1], [-1, 0]], atol=1e-12)

    def test_default_k_is_eight(self):
        import inspect
        assert inspect.signature(pearson_topk_adjacency).parameters["k"].default == 8

    def test_row_sparsity(self):
        rng = np.random.default_rng(2)
        adj = pearson_topk_adjacency(rng.normal(size=(12, 40)), k=8)
        off_diag = adj.copy()
        np.fill_diagonal(off_diag, 0.0)
        assert ((off_diag != 0).sum(axis=1) <= 8).all()
        assert np.allclose(adj.diagonal(), 0.0)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=(6, 50))
        base = pearson_topk_adjacency(series, k=3)
        scaled = series.copy()
        scaled[2] = 7.5 * scaled[2] - 3.0
        scaled[4] = 0.01 * scaled[4] + 100.0
        rescaled = pearson_topk_adjacency(scaled, k=3)
        assert ((base != 0) == (rescaled != 0)).all()
        np.testing.assert_allclose(rescaled, base, atol=1e-9)

    def test_tie_break_prefers_lower_index(self):
        t = np.linspace(0, 1, 8)
        series = np.stack([t, 2 * t, 3 * t + 1, -t])  # nodes 1 and 2 tie at rho=1
        adj = pearson_topk_adjacency(series, k=1)
        assert adj[0, 1] != 0.0 and adj[0, 2] == 0.0

    def test_constant_series_zero(self):
        series = np.stack([np.ones(10), np.linspace(0, 1, 10), np.linspace(1, 0, 10)])
        corr = pearson_correlation(series)
        np.testing.assert_array_equal(corr[0], np.zeros(3))

    @settings(max_examples=200, deadline=None)
    @given(tied_series())
    def test_matches_sorted_loop_by_bytes(self, series):
        for k in range(series.shape[0]):
            assert pearson_topk_adjacency(series, k).tobytes() == \
                oracle_topk(series, k).tobytes()

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k="):
            pearson_topk_adjacency(np.random.default_rng(0).normal(size=(4, 10)), k=4)


class TestGraphHolder:
    def test_identity(self):
        g = build_graph("identity", 3)
        np.testing.assert_array_equal(g.matrix().values, np.eye(3))

    def test_pearson_requires_series(self):
        with pytest.raises(ValueError, match="target series"):
            build_graph("pearson", 4)

    def test_pearson_clamps_k(self):
        series = np.random.default_rng(1).normal(size=(3, 30))
        clamped = build_graph("pearson", 3, target_series=series, k=8).adjacency
        assert clamped.tobytes() == \
            build_graph("pearson", 3, target_series=series, k=2).adjacency.tobytes()

    def test_adaptive_parameters_registered(self):
        g = build_graph("adaptive", 4, rng=np.random.default_rng(0))
        assert set(g.parameters("graph")) == {"graph.embeddings"}
        g2 = build_graph("adaptive-directed", 4, rng=np.random.default_rng(0))
        assert set(g2.parameters("graph")) == {"graph.src_embeddings",
                                            "graph.dst_embeddings"}
        rows = g2.matrix().values.sum(axis=1)
        np.testing.assert_allclose(rows, np.ones(4), atol=1e-6)

    def test_adaptive_embedding_width(self):
        assert EMBED_DIM == 8
        for kind in ("adaptive", "adaptive-directed"):
            g = build_graph(kind, 5, rng=np.random.default_rng(0))
            for name, t in g.parameters("graph").items():
                assert t.shape == (5, EMBED_DIM), name

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            build_graph("delaunay", 3)


class TestConvPrep:
    def test_self_loops_and_row_normalize(self):
        adj = np.array([[0.0, 0.5], [-0.5, 0.0]])
        prepped = row_normalize(with_self_loops(adj))
        np.testing.assert_allclose(np.abs(prepped).sum(axis=1), np.ones(2))
        assert prepped[1, 0] < 0  # sign preserved
