"""Select stage: conditional embedding plus mixture-of-experts recombination.

Endogenous history is projected into an exogenous-conditioned latent space
(one space per exogenous type), then K expert projections are convexly
recombined per node and step by a dense softmax gate. A given rng means
training: dropout then draws from it whenever ``keep_prob < 1``, and without
one the stage is the eval-mode map and draws nothing. A branch records four
tape nodes: the fused conditional embedding (``autodiff.cond_embed``), the
gate's matmul and softmax, and the fused recombination
(``autodiff.moe_combine``). Both fused nodes keep their inputs, not their
activations, recompute in backward and walk the rows in cache-sized chunks;
the recombination's order-canonical sum, sorted by a min/max network, makes
the output invariant to relabeling the experts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Params, Tensor

@dataclass
class CondEmbedParams(Params):
    """Affine projections fusing endogenous and exogenous streams into width H."""

    w_x: Tensor               # (F, H)
    w_e: Tensor               # (F_exo, H)
    b: Tensor                 # (H,)
    activation: str = "relu"
    keep_prob: float = 0.9


@dataclass
class ExpertBank(Params):
    """K expert projections (H, H), archived as ``expert{k}``, and the gate
    map (H, K)."""

    experts: list[Tensor]
    gate: Tensor

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.expert{k}": w for k, w in enumerate(self.experts)}
        out[f"{prefix}.gate"] = self.gate
        return out


def init_cond_embed(f_in: int, f_exo: int, hidden: int, rng: Optional[np.random.Generator],
                    activation: str = "relu", keep_prob: float = 0.9) -> CondEmbedParams:
    if activation not in ad.ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    return CondEmbedParams(
        w_x=ad.uniform_parameter(rng, (f_in, hidden), f_in),
        w_e=ad.uniform_parameter(rng, (f_exo, hidden), max(f_exo, 1)),
        b=Tensor(np.zeros(hidden), requires_grad=True),
        activation=activation,
        keep_prob=keep_prob,
    )


def init_expert_bank(hidden: int, n_experts: int,
                     rng: Optional[np.random.Generator]) -> ExpertBank:
    if n_experts < 1:
        raise ValueError("at least one expert required")
    return ExpertBank(
        experts=[ad.uniform_parameter(rng, (hidden, hidden), hidden)
                 for _ in range(n_experts)],
        gate=ad.uniform_parameter(rng, (hidden, n_experts), hidden),
    )


def _pad_time(t: Tensor, length: int, side: str) -> Tensor:
    """Zero-pad along the time axis (second to last) to the requested length."""
    current = t.shape[-2]
    if current == length:
        return t
    if current > length:
        raise ValueError(f"cannot pad length {current} down to {length}")
    pad_shape = t.shape[:-2] + (length - current,) + t.shape[-1:]
    zeros = Tensor(np.zeros(pad_shape))
    parts = [zeros, t] if side == "head" else [t, zeros]
    return ad.concat(parts, axis=-2)


def conditional_embed(x: Tensor, e: Tensor, params: CondEmbedParams, *,
                      pad_side: str = "head",
                      rng: Optional[np.random.Generator] = None) -> Tensor:
    """Dropout(Act(x W_x + e W_e + b)) with element-wise add fusion.

    A given ``rng`` means training: dropout draws its mask from it when
    ``params.keep_prob < 1``. Without one, or at ``keep_prob`` 1, the
    dropout is the identity and nothing is drawn.

    When the two streams differ in length the shorter one is zero-padded
    along time: at the head for the past branch, at the tail for the future.
    The rest is one ``autodiff.cond_embed`` node, which keeps ``x``, ``e``
    and, when it drops, the ``bool`` dropout mask, and recomputes the
    pre-activation in backward.
    """
    if x.shape[-1] != params.w_x.shape[0]:
        raise ValueError(
            f"endogenous feature dim {x.shape[-1]} != {params.w_x.shape[0]}")
    if e.shape[-1] != params.w_e.shape[0]:
        raise ValueError(
            f"exogenous feature dim {e.shape[-1]} != {params.w_e.shape[0]}")
    length = max(x.shape[-2], e.shape[-2])
    x = _pad_time(x, length, pad_side)
    e = _pad_time(e, length, pad_side)
    return ad.cond_embed(x, e, params.w_x, params.w_e, params.b, params.activation,
                         params.keep_prob, rng if params.keep_prob < 1.0 else None)


def moe_gate(x_tau: Tensor, gate: Tensor) -> Tensor:
    """Per-(node, step) softmax gate over the K experts."""
    return ad.softmax(ad.matmul(x_tau, gate), axis=-1)


def moe_select(x_tau: Tensor, bank: ExpertBank, g: Tensor) -> Tensor:
    """Convex recombination sum_k g_k * (x W_k) at every node and step.

    Records a single ``moe_combine`` tape node, whose backward recomputes
    the K projections instead of keeping them. The terms are summed in
    ascending-value order, sorted by a min/max network, so relabeling the
    experts (with their gate columns) cannot change the output bits.
    """
    return ad.moe_combine(x_tau, g, bank.experts)


def select_stage(x: Tensor, e: Tensor, embed: CondEmbedParams,
                 bank: Optional[ExpertBank], *, pad_side: str,
                 rng: Optional[np.random.Generator] = None) -> Tensor:
    """Full select stage; without a bank (the selector ablation) the
    conditional embedding passes through. A given ``rng`` means training:
    the embedding's dropout draws from it."""
    x_tau = conditional_embed(x, e, embed, pad_side=pad_side, rng=rng)
    if bank is None:
        return x_tau
    return moe_select(x_tau, bank, moe_gate(x_tau, bank.gate))
