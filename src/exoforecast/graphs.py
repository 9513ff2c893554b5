"""Adjacency construction for the graph-aware encoders.

Two families: data-driven Pearson top-k over training target histories, and
adaptive adjacencies computed from trainable node embeddings inside each
forward pass (so they participate in the gradient tape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Params, Tensor

GRAPH_KINDS = ("pearson", "adaptive", "adaptive-directed", "identity")
EMBED_DIM = 8  # width of each node's adaptive embedding


def adaptive_adjacency(embeddings: Tensor) -> Tensor:
    """Row-softmax of ReLU(E Eᵀ): the directed form with one embedding."""
    return adaptive_adjacency_directed(embeddings, embeddings)


def adaptive_adjacency_directed(src: Tensor, dst: Tensor) -> Tensor:
    """Directed variant with separate source and target embeddings."""
    scores = ad.relu(ad.matmul(src, ad.transpose(dst)))
    return ad.softmax(scores, axis=1)


def pearson_correlation(series: np.ndarray) -> np.ndarray:
    """Pairwise Pearson coefficients; constant series correlate 0 with everything."""
    if series.ndim != 2 or series.shape[1] < 2:
        raise ValueError("series must be (N, T) with T >= 2")
    centered = series - series.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered ** 2).sum(axis=1))
    safe = np.where(norms > 0, norms, 1.0)
    corr = (centered / safe[:, None]) @ (centered / safe[:, None]).T
    corr[norms == 0, :] = 0.0
    corr[:, norms == 0] = 0.0
    return corr


def pearson_topk_adjacency(series: np.ndarray, k: int = 8) -> np.ndarray:
    """Keep each node's k largest off-diagonal correlations, signed.

    Ties break toward the lower node index so builds are reproducible.
    """
    n = series.shape[0]
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the node count {n}")
    corr = pearson_correlation(series)
    # a stable ascending sort of -corr keeps lower indices first on ties;
    # the +inf diagonal sorts last, so no node picks itself
    key = -corr
    np.fill_diagonal(key, np.inf)
    picked = np.argsort(key, axis=1, kind="stable")[:, :k]
    adj = np.zeros((n, n))
    np.put_along_axis(adj, picked, np.take_along_axis(corr, picked, axis=1), axis=1)
    return adj


def with_self_loops(adj: np.ndarray) -> np.ndarray:
    out = adj.copy()
    np.fill_diagonal(out, out.diagonal() + 1.0)
    return out


def row_normalize(adj: np.ndarray) -> np.ndarray:
    """Scale rows to unit L1 mass, preserving sign of the entries."""
    denom = np.abs(adj).sum(axis=1, keepdims=True)
    denom = np.where(denom > 0, denom, 1.0)
    return adj / denom


@dataclass
class Graph(Params):
    """N x N adjacency, held as exactly one of three things, and the field
    that is set decides what ``matrix`` returns.

    A static kind (pearson, identity) holds its ``adjacency``. An adaptive
    kind holds trainable ``embeddings`` (undirected), or ``src_embeddings``
    and ``dst_embeddings`` (directed), and re-evaluates the matrix on every
    call so it stays inside the active differentiation tape.
    """

    adjacency: Optional[np.ndarray] = None
    embeddings: Optional[Tensor] = None
    src_embeddings: Optional[Tensor] = None
    dst_embeddings: Optional[Tensor] = None

    def matrix(self) -> Tensor:
        if self.adjacency is not None:
            return Tensor(self.adjacency)
        if self.embeddings is not None:
            return adaptive_adjacency(self.embeddings)
        return adaptive_adjacency_directed(self.src_embeddings, self.dst_embeddings)


def build_graph(kind: str, n_nodes: int, target_series: Optional[np.ndarray] = None,
                k: int = 8, rng: Optional[np.random.Generator] = None) -> Graph:
    """Construct a graph of ``kind``, one of ``GRAPH_KINDS``.

    A pearson graph needs ``target_series`` (N, T_train) and keeps each
    node's ``min(k, n_nodes - 1)`` largest correlations. An adaptive kind
    draws its trainable (n_nodes, ``EMBED_DIM``) = (n_nodes, 8) embeddings,
    one for the undirected kind and a source and a target for the directed
    one, from ``rng``; there is no default generator, and without one the
    embeddings are left to be filled (``uniform_parameter``). Identity
    needs neither.
    """
    if kind == "identity":
        return Graph(adjacency=np.eye(n_nodes))
    if kind == "pearson":
        if target_series is None:
            raise ValueError("pearson graph needs the training target series")
        return Graph(adjacency=pearson_topk_adjacency(target_series,
                                                      min(k, n_nodes - 1)))

    def embedding() -> Tensor:
        return ad.uniform_parameter(rng, (n_nodes, EMBED_DIM), EMBED_DIM)

    if kind == "adaptive":
        return Graph(embeddings=embedding())
    if kind == "adaptive-directed":
        return Graph(src_embeddings=embedding(), dst_embeddings=embedding())
    raise ValueError(f"unknown graph kind {kind!r}")
