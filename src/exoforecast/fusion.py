"""Balance stage: combine the two branch forecasts into the final prediction.

The default is a context-aware balancer: a per-horizon-step sigmoid weight
alpha generated from the node-pooled sum of the branches, applied as
alpha * Y_p + (1 - alpha) * Y_f plus the unweighted sum as a residual.
Four alternative strategies (shared encoder, fixed equal weights, learnable
softmax weights, bidirectional per-step attention) are provided for the
strategy comparisons, and ``sum`` returns Y_p + Y_f with no parameters: the
model without its balancer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Params, Tensor

FUSION_STRATEGIES = ("context", "shared", "simple", "learnable", "attention", "sum")


@dataclass
class BalancerParams(Params):
    """Bottleneck MLP generating the balancing weight, one per horizon step."""

    w1: Tensor   # (T_f, width)
    b1: Tensor   # (width,)
    w2: Tensor   # (width, T_f)
    b2: Tensor   # (T_f,)


@dataclass
class AttentionParams(Params):
    """Shared projection maps for the bidirectional attention strategy."""

    w_q: Tensor  # (C, C)
    w_k: Tensor
    w_v: Tensor


def init_balancer(t_future: int, rng: Optional[np.random.Generator]) -> BalancerParams:
    """A 4x bottleneck of ``max(t_future // 4, 4)`` units over the T_f
    per-step weights."""
    width = max(t_future // 4, 4)
    return BalancerParams(
        w1=ad.uniform_parameter(rng, (t_future, width), t_future),
        b1=Tensor(np.zeros(width), requires_grad=True),
        w2=ad.uniform_parameter(rng, (width, t_future), width),
        b2=Tensor(np.zeros(t_future), requires_grad=True),
    )


def init_attention(width: int, rng: Optional[np.random.Generator]) -> AttentionParams:
    return AttentionParams(
        w_q=ad.uniform_parameter(rng, (width, width), width),
        w_k=ad.uniform_parameter(rng, (width, width), width),
        w_v=ad.uniform_parameter(rng, (width, width), width),
    )


def init_learnable_weights() -> Tensor:
    return Tensor(np.zeros(2), requires_grad=True)


def context_combine(y_p: Tensor, y_f: Tensor, alpha: Tensor) -> Tensor:
    """Apply alpha * Y_p + (1 - alpha) * Y_f + (Y_p + Y_f) for a given alpha.

    ``alpha`` must broadcast against the branch shapes.
    """
    residual = ad.add(y_p, y_f)
    weighted = ad.add(ad.mul(alpha, y_p), ad.mul(ad.sub(1.0, alpha), y_f))
    return ad.add(weighted, residual)


def context_balance(y_p: Tensor, y_f: Tensor,
                    params: BalancerParams) -> tuple[Tensor, Tensor]:
    """Context-aware fusion; returns (prediction, alpha).

    The two branches are summed, pooled over nodes into a T_f-wide
    descriptor, passed through the bottleneck MLP and a sigmoid, and the
    resulting per-step alpha is broadcast back across nodes.
    """
    if y_p.shape != y_f.shape:
        raise ValueError(f"branch shapes differ: {y_p.shape} vs {y_f.shape}")
    context = ad.add(y_p, y_f)                       # (..., N, T_f, 1)
    pooled = ad.mean(context, axis=-3)               # (..., T_f, 1)
    descriptor = ad.reshape(pooled, pooled.shape[:-2] + (1, pooled.shape[-2]))
    hidden = ad.relu(ad.affine(descriptor, params.w1, params.b1))
    alpha_row = ad.sigmoid(ad.affine(hidden, params.w2, params.b2))
    # (..., 1, T_f) -> (..., 1 node, T_f steps, 1 channel)
    alpha_bc = ad.reshape(alpha_row, alpha_row.shape[:-2] + (1, alpha_row.shape[-1], 1))
    y_hat = context_combine(y_p, y_f, alpha_bc)
    alpha = ad.reshape(alpha_row, alpha_row.shape[:-2] + (alpha_row.shape[-1],))
    return y_hat, alpha


def fuse_simple(y_p: Tensor, y_f: Tensor) -> Tensor:
    """Fixed equal weights, no residual."""
    if y_p.shape != y_f.shape:
        raise ValueError(f"branch shapes differ: {y_p.shape} vs {y_f.shape}")
    return ad.add(ad.mul(y_p, 0.5), ad.mul(y_f, 0.5))


def fuse_learnable(y_p: Tensor, y_f: Tensor, w_init: Tensor) -> Tensor:
    """Softmax-normalized pair of weights plus the residual sum."""
    if y_p.shape != y_f.shape:
        raise ValueError(f"branch shapes differ: {y_p.shape} vs {y_f.shape}")
    w = ad.softmax(w_init, axis=-1)
    weighted = ad.add(ad.mul(w[0:1], y_p), ad.mul(w[1:2], y_f))
    return ad.add(weighted, ad.add(y_p, y_f))


def _directed_enhance(query_src: Tensor, target: Tensor,
                      params: AttentionParams) -> Tensor:
    """Enhance ``target`` with attention queried from the other stream.

    Per-step scores: channel-summed Q.K divided by sqrt(width), softmaxed
    over time, then applied pointwise to V with a residual connection.
    """
    width = target.shape[-1]
    q = ad.matmul(query_src, params.w_q)
    k = ad.matmul(target, params.w_k)
    v = ad.matmul(target, params.w_v)
    scores = ad.mul(ad.reduce_sum(ad.mul(q, k), axis=-1),
                    1.0 / np.sqrt(width))            # (..., T)
    att = ad.softmax(scores, axis=-1)
    att_col = ad.reshape(att, att.shape + (1,))
    return ad.add(target, ad.mul(att_col, v))


def attention_enhance(s_p: Tensor, s_f: Tensor, params: AttentionParams
                      ) -> tuple[Tensor, Tensor]:
    """Bidirectional enhancement of the two branch states."""
    if s_p.shape != s_f.shape:
        raise ValueError(f"branch shapes differ: {s_p.shape} vs {s_f.shape}")
    enhanced_p = _directed_enhance(s_f, s_p, params)   # future -> past
    enhanced_f = _directed_enhance(s_p, s_f, params)   # past -> future
    return enhanced_p, enhanced_f


def fuse_attention(y_p: Tensor, y_f: Tensor, params: AttentionParams) -> Tensor:
    """Average of the two attention-enhanced states."""
    return fuse_simple(*attention_enhance(y_p, y_f, params))
